//===- support/Journal.cpp ------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Journal.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

using namespace g80;

uint64_t g80::fnv1a64(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string g80::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  return Out;
}

std::string g80::jsonUnescape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    switch (S[++I]) {
    case '"':
      Out += '"';
      break;
    case '\\':
      Out += '\\';
      break;
    case 'n':
      Out += '\n';
      break;
    case 'r':
      Out += '\r';
      break;
    case 't':
      Out += '\t';
      break;
    case 'u':
      if (I + 4 < S.size()) {
        unsigned V = unsigned(
            std::strtoul(std::string(S.substr(I + 1, 4)).c_str(), nullptr, 16));
        Out += char(V & 0xff);
        I += 4;
      }
      break;
    default:
      Out += S[I];
    }
  }
  return Out;
}

namespace {

Diagnostic journalError(std::string Msg) {
  return makeDiag(ErrorCode::JournalError, Stage::Parse, std::move(Msg));
}

std::string crcHex(std::string_view Bytes) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(Bytes)));
  return Buf;
}

/// Finds `"Key":` inside the serialized-by-us object \p Obj and returns
/// the raw value text starting right after the colon (up to end of Obj).
bool fieldTail(std::string_view Obj, std::string_view Key,
               std::string_view &Tail) {
  std::string Needle = "\"";
  Needle.append(Key).append("\":");
  size_t Pos = Obj.find(Needle);
  if (Pos == std::string_view::npos)
    return false;
  Tail = Obj.substr(Pos + Needle.size());
  return true;
}

} // namespace

bool g80::jsonStringField(std::string_view Obj, std::string_view Key,
                          std::string &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail) || Tail.empty() || Tail[0] != '"')
    return false;
  // Scan for the closing unescaped quote.
  for (size_t I = 1; I < Tail.size(); ++I) {
    if (Tail[I] == '\\') {
      ++I;
      continue;
    }
    if (Tail[I] == '"') {
      Out = jsonUnescape(Tail.substr(1, I - 1));
      return true;
    }
  }
  return false;
}

bool g80::jsonUintField(std::string_view Obj, std::string_view Key,
                        uint64_t &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail))
    return false;
  char *End = nullptr;
  std::string Text(Tail.substr(0, 24));
  Out = std::strtoull(Text.c_str(), &End, 10);
  return End != Text.c_str();
}

bool g80::jsonDoubleField(std::string_view Obj, std::string_view Key,
                          double &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail))
    return false;
  char *End = nullptr;
  std::string Text(Tail.substr(0, 40));
  Out = std::strtod(Text.c_str(), &End);
  return End != Text.c_str();
}

bool g80::jsonBoolField(std::string_view Obj, std::string_view Key,
                        bool &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail))
    return false;
  if (Tail.substr(0, 4) == "true") {
    Out = true;
    return true;
  }
  if (Tail.substr(0, 5) == "false") {
    Out = false;
    return true;
  }
  return false;
}

bool g80::jsonIntArrayField(std::string_view Obj, std::string_view Key,
                            std::vector<int> &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail) || Tail.empty() || Tail[0] != '[')
    return false;
  size_t Close = Tail.find(']');
  if (Close == std::string_view::npos)
    return false;
  Out.clear();
  std::string Body(Tail.substr(1, Close - 1));
  const char *P = Body.c_str();
  while (*P) {
    char *End = nullptr;
    long V = std::strtol(P, &End, 10);
    if (End == P)
      return false;
    Out.push_back(int(V));
    P = End;
    if (*P == ',')
      ++P;
  }
  return true;
}

namespace {

constexpr std::string_view HeaderPrefix = "{\"g80journal\":1,\"crc\":\"";
constexpr std::string_view RecordPrefix = "{\"crc\":\"";

/// Validates one journal line: checks the wrapper shape and checksum, and
/// yields the embedded object text.  \p WantHeader selects which wrapper
/// is expected.
bool validateLine(std::string_view Line, bool WantHeader,
                  std::string &Payload) {
  std::string_view Prefix = WantHeader ? HeaderPrefix : RecordPrefix;
  std::string_view Tag = WantHeader ? "\",\"hdr\":" : "\",\"rec\":";
  if (Line.size() < Prefix.size() + 16 + Tag.size() + 3)
    return false;
  if (Line.substr(0, Prefix.size()) != Prefix)
    return false;
  std::string_view Crc = Line.substr(Prefix.size(), 16);
  std::string_view Rest = Line.substr(Prefix.size() + 16);
  if (Rest.substr(0, Tag.size()) != Tag)
    return false;
  std::string_view Obj = Rest.substr(Tag.size());
  if (Obj.empty() || Obj.back() != '}')
    return false;
  Obj.remove_suffix(1); // The wrapper's closing brace.
  if (crcHex(Obj) != Crc)
    return false;
  Payload = std::string(Obj);
  return true;
}

std::string wrapLine(std::string_view PayloadJson, bool IsHeader) {
  std::string Line(IsHeader ? HeaderPrefix : RecordPrefix);
  Line += crcHex(PayloadJson);
  Line += IsHeader ? "\",\"hdr\":" : "\",\"rec\":";
  Line += PayloadJson;
  Line += "}\n";
  return Line;
}

} // namespace

std::string JournalHeader::toJson() const {
  std::ostringstream OS;
  OS << "{\"app\":\"" << jsonEscape(App) << "\",\"machine\":\""
     << jsonEscape(Machine) << "\",\"strategy\":\"" << jsonEscape(Strategy)
     << "\",\"seed\":" << Seed << ",\"budget\":" << Budget
     << ",\"raw\":" << RawSize << ",\"space\":\"" << jsonEscape(Space)
     << "\",\"extra\":\"" << jsonEscape(Extra) << "\"}";
  return OS.str();
}

Expected<JournalHeader> JournalHeader::fromJson(std::string_view Json) {
  JournalHeader H;
  if (!jsonStringField(Json, "app", H.App) ||
      !jsonStringField(Json, "machine", H.Machine) ||
      !jsonStringField(Json, "strategy", H.Strategy) ||
      !jsonUintField(Json, "seed", H.Seed) ||
      !jsonUintField(Json, "budget", H.Budget) ||
      !jsonUintField(Json, "raw", H.RawSize) ||
      !jsonStringField(Json, "extra", H.Extra))
    return journalError("malformed journal header");
  // Pre-tier journals omit "space"; they were all small-tier sweeps.
  if (!jsonStringField(Json, "space", H.Space))
    H.Space = "small";
  return H;
}

Expected<JournalContents> g80::readJournal(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return journalError("cannot open journal '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();

  JournalContents Out;
  bool SawHeader = false;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    bool Terminated = Nl != std::string::npos;
    size_t End = Terminated ? Nl : Text.size();
    std::string_view Line(Text.data() + Pos, End - Pos);
    size_t NextPos = Terminated ? Nl + 1 : Text.size();
    bool IsLast = NextPos >= Text.size();

    std::string Payload;
    if (!validateLine(Line, /*WantHeader=*/!SawHeader, Payload)) {
      if (!SawHeader)
        return journalError("missing or corrupt journal header in '" + Path +
                            "'");
      if (!IsLast)
        return journalError("corrupt journal record before end of '" + Path +
                            "' (not a torn tail)");
      // Torn final record: the crash point.  Drop it and resume.
      Out.DroppedTornTail = true;
      return Out;
    }
    if (!SawHeader) {
      Expected<JournalHeader> H = JournalHeader::fromJson(Payload);
      if (!H)
        return H.takeDiag();
      Out.Header = H.takeValue();
      SawHeader = true;
    } else {
      Out.Records.push_back(std::move(Payload));
    }
    Out.ValidBytes = Terminated ? NextPos : Text.size();
    Pos = NextPos;
  }
  if (!SawHeader)
    return journalError("journal '" + Path + "' is empty");
  return Out;
}

//===--- JournalWriter --------------------------------------------------------//

JournalWriter::JournalWriter(JournalWriter &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)) {}

JournalWriter &JournalWriter::operator=(JournalWriter &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
  }
  return *this;
}

JournalWriter::~JournalWriter() { close(); }

#ifndef _WIN32

void g80::fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir =
      Slash == std::string::npos ? "." : Path.substr(0, Slash ? Slash : 1);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

static Expected<Unit> writeAll(int Fd, std::string_view Bytes) {
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0)
      return journalError("journal write failed: " +
                          std::string(std::strerror(errno)));
    Done += size_t(N);
  }
  return Unit{};
}

Expected<JournalWriter> JournalWriter::create(const std::string &Path,
                                              const JournalHeader &Header) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return journalError("cannot create journal '" + Path +
                        "': " + std::strerror(errno));
  JournalWriter W(Fd);
  std::string Line = wrapLine(Header.toJson(), /*IsHeader=*/true);
  if (Expected<Unit> R = writeAll(Fd, Line); !R)
    return R.takeDiag();
  ::fsync(Fd);
  // The file's contents are durable, but its directory entry is not until
  // the parent directory is synced too — without this a freshly created
  // journal can vanish wholesale on power loss.
  fsyncParentDir(Path);
  return W;
}

Expected<JournalWriter> JournalWriter::append(const std::string &Path,
                                              uint64_t ValidBytes) {
  int Fd = ::open(Path.c_str(), O_WRONLY, 0644);
  if (Fd < 0)
    return journalError("cannot open journal '" + Path +
                        "': " + std::strerror(errno));
  // Cut off any torn tail so the file stays a prefix of valid records.
  if (::ftruncate(Fd, off_t(ValidBytes)) != 0) {
    std::string Err = std::strerror(errno);
    ::close(Fd);
    return journalError("cannot truncate journal '" + Path + "': " + Err);
  }
  if (::lseek(Fd, 0, SEEK_END) < 0) {
    ::close(Fd);
    return journalError("cannot seek journal '" + Path + "'");
  }
  return JournalWriter(Fd);
}

Expected<Unit> JournalWriter::appendRecord(std::string_view PayloadJson) {
  if (Fd < 0)
    return journalError("journal writer is closed");
  std::string Line = wrapLine(PayloadJson, /*IsHeader=*/false);
  if (Expected<Unit> R = writeAll(Fd, Line); !R)
    return R.takeDiag();
  // The durability point: once this returns, the record survives SIGKILL,
  // OOM, and power loss.
#ifdef __linux__
  ::fdatasync(Fd);
#else
  ::fsync(Fd);
#endif
  return Unit{};
}

void JournalWriter::close() {
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
    Fd = -1;
  }
}

#else // _WIN32 — stdio fallback without durability guarantees.

void g80::fsyncParentDir(const std::string &) {}

Expected<JournalWriter> JournalWriter::create(const std::string &Path,
                                              const JournalHeader &Header) {
  (void)Path;
  (void)Header;
  return journalError("journal is not supported on this platform");
}

Expected<JournalWriter> JournalWriter::append(const std::string &Path,
                                              uint64_t ValidBytes) {
  (void)Path;
  (void)ValidBytes;
  return journalError("journal is not supported on this platform");
}

Expected<Unit> JournalWriter::appendRecord(std::string_view PayloadJson) {
  (void)PayloadJson;
  return journalError("journal is not supported on this platform");
}

void JournalWriter::close() {}

#endif
