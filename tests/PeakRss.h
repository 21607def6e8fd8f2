//===- tests/PeakRss.h - peak-RSS growth probe for memory tests -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Memory tests assert that some operation grows the process's peak
// resident set (VmHWM) by less than a stated bound.  ctest runs each gtest
// case in its own process, so VmHWM belongs to the case; the probe also
// resets it where the kernel allows, so running a whole binary by hand
// measures the same thing.  Sanitizer shadow memory swamps RSS, so the
// probe reports itself unusable under ASan and TSan.
//
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_TESTS_PEAKRSS_H
#define G80TUNE_TESTS_PEAKRSS_H

#include "support/Trace.h"

#include <cstdint>
#include <fstream>
#include <optional>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define G80TUNE_TESTS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define G80TUNE_TESTS_SANITIZED 1
#endif
#endif

namespace g80 {

/// Measures VmHWM growth from construction to growthMb().
class PeakRssProbe {
public:
  PeakRssProbe() {
    // "5" resets VmHWM to the current RSS (Linux 4.0+); harmless if
    // refused, since a fresh ctest process starts low anyway.
    std::ofstream("/proc/self/clear_refs") << "5";
    StartKb = peakRssKb();
  }

  /// False under sanitizers or where /proc/self/status is unreadable.
  bool usable() const {
#ifdef G80TUNE_TESTS_SANITIZED
    return false;
#else
    return StartKb.has_value();
#endif
  }

  double growthMb() const {
    return double(peakRssKb().value_or(0) - *StartKb) / 1024.0;
  }

private:
  std::optional<uint64_t> StartKb;
};

} // namespace g80

#endif // G80TUNE_TESTS_PEAKRSS_H
