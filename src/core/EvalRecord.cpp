//===- core/EvalRecord.cpp ------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/EvalRecord.h"

#include "support/Journal.h"
#include "support/Numeric.h"

#include <cstdio>
#include <sstream>
#include <unordered_map>

using namespace g80;

namespace {

/// 17 significant digits: enough for IEEE double round-trips, so resumed
/// sweeps rank configurations bit-identically to the original run.
std::string fmtExact(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

Diagnostic recordError(std::string Msg) {
  return makeDiag(ErrorCode::JournalError, Stage::Parse, std::move(Msg));
}

} // namespace

EvalRecord EvalRecord::fromEval(const ConfigEval &E) {
  EvalRecord R;
  R.Index = E.FlatIndex;
  R.Point = E.Point;
  R.Expressible = E.Expressible;
  R.Valid = E.Metrics.Valid;
  R.Efficiency = E.EfficiencyTotal;
  R.Utilization = E.Metrics.Utilization;
  R.Measured = E.Measured;
  R.TimeSeconds = E.TimeSeconds;
  R.SimSeconds = E.Sim.Seconds;
  R.Cycles = E.Sim.Cycles;
  R.FastBw = E.Sim.BandwidthFastPath;
  R.IssueStallCycles = E.Sim.IssueStallCycles;
  R.MemQueueWaitCycles = E.Sim.MemQueueWaitCycles;
  R.BlocksPerSM = E.Metrics.Occ.BlocksPerSM;
  R.Code = E.Failure.Code;
  R.At = E.Failure.At;
  R.Message = E.Failure.Message;
  return R;
}

void EvalRecord::applyTo(ConfigEval &E) const {
  E.Measured = Measured;
  E.TimeSeconds = TimeSeconds;
  E.Sim.Seconds = SimSeconds;
  E.Sim.Cycles = Cycles;
  E.Sim.BandwidthFastPath = FastBw;
  E.Sim.IssueStallCycles = IssueStallCycles;
  E.Sim.MemQueueWaitCycles = MemQueueWaitCycles;
  if (failed()) {
    E.Failure.Code = Code;
    E.Failure.At = At;
    E.Failure.Message = Message;
  }
}

std::string EvalRecord::toJson() const {
  std::ostringstream OS;
  OS << "{\"idx\":" << Index << ",\"point\":[";
  for (size_t I = 0; I != Point.size(); ++I)
    OS << (I ? "," : "") << Point[I];
  OS << "],\"expr\":" << (Expressible ? "true" : "false")
     << ",\"valid\":" << (Valid ? "true" : "false")
     << ",\"eff\":" << fmtExact(Efficiency)
     << ",\"util\":" << fmtExact(Utilization)
     << ",\"measured\":" << (Measured ? "true" : "false")
     << ",\"time\":" << fmtExact(TimeSeconds)
     << ",\"simsec\":" << fmtExact(SimSeconds) << ",\"cycles\":" << Cycles
     << ",\"fastbw\":" << (FastBw ? "true" : "false")
     << ",\"stall\":" << IssueStallCycles
     << ",\"memwait\":" << MemQueueWaitCycles << ",\"bsm\":" << BlocksPerSM
     << ",\"code\":" << unsigned(Code) << ",\"stage\":" << unsigned(At)
     << ",\"msg\":\"" << jsonEscape(Message) << "\"}";
  return OS.str();
}

Expected<EvalRecord> EvalRecord::fromJson(std::string_view Json) {
  EvalRecord R;
  uint64_t Code = 0, StageVal = 0;
  if (!jsonUintField(Json, "idx", R.Index) ||
      !jsonIntArrayField(Json, "point", R.Point) ||
      !jsonBoolField(Json, "expr", R.Expressible) ||
      !jsonBoolField(Json, "valid", R.Valid) ||
      !jsonDoubleField(Json, "eff", R.Efficiency) ||
      !jsonDoubleField(Json, "util", R.Utilization) ||
      !jsonBoolField(Json, "measured", R.Measured) ||
      !jsonDoubleField(Json, "time", R.TimeSeconds) ||
      !jsonDoubleField(Json, "simsec", R.SimSeconds) ||
      !jsonUintField(Json, "cycles", R.Cycles) ||
      !jsonUintField(Json, "code", Code) ||
      !jsonUintField(Json, "stage", StageVal) ||
      !jsonStringField(Json, "msg", R.Message))
    return recordError("malformed eval record");
  // Absent in journals written before the fast path existed; default off.
  jsonBoolField(Json, "fastbw", R.FastBw);
  // Absent before the observability layer; default zero.
  jsonUintField(Json, "stall", R.IssueStallCycles);
  jsonUintField(Json, "memwait", R.MemQueueWaitCycles);
  jsonUintField(Json, "bsm", R.BlocksPerSM);
  if (Code > unsigned(LastErrorCode) || StageVal >= NumStages)
    return recordError("eval record carries an unknown code or stage");
  R.Code = ErrorCode(Code);
  R.At = Stage(StageVal);
  return R;
}

std::vector<std::string> EvalRecord::csvHeader() {
  return {"index",
          "point",
          "expressible",
          "valid",
          "efficiency",
          "utilization",
          "measured",
          "time_seconds",
          "sim_seconds",
          "cycles",
          "issue_stall_cycles",
          "mem_queue_wait_cycles",
          "issue_efficiency",
          "blocks_per_sm",
          "fast_bw",
          "fail_stage",
          "fail_code",
          "fail_message"};
}

std::vector<std::string> EvalRecord::csvRow() const {
  std::string PointText;
  for (size_t I = 0; I != Point.size(); ++I)
    PointText.append(I ? "," : "").append(std::to_string(Point[I]));
  return {std::to_string(Index),
          PointText,
          Expressible ? "1" : "0",
          Valid ? "1" : "0",
          fmtExact(Efficiency),
          fmtExact(Utilization),
          Measured ? "1" : "0",
          fmtExact(TimeSeconds),
          fmtExact(SimSeconds),
          std::to_string(Cycles),
          std::to_string(IssueStallCycles),
          std::to_string(MemQueueWaitCycles),
          fmtExact(issueEfficiency()),
          std::to_string(BlocksPerSM),
          FastBw ? "1" : "0",
          failed() ? stageName(At) : "",
          failed() ? errorCodeName(Code) : "",
          Message};
}

Expected<EvalRecord>
EvalRecord::fromCsvRow(const std::vector<std::string> &Header,
                       const std::vector<std::string> &Row) {
  if (Header.size() != Row.size())
    return recordError("CSV row has " + std::to_string(Row.size()) +
                       " cells but the header names " +
                       std::to_string(Header.size()) + " columns");
  std::unordered_map<std::string_view, const std::string *> Cell;
  for (size_t I = 0; I != Header.size(); ++I)
    Cell.emplace(Header[I], &Row[I]);
  auto Get = [&](std::string_view Name) -> const std::string * {
    auto It = Cell.find(Name);
    return It == Cell.end() ? nullptr : It->second;
  };

  EvalRecord R;
  auto TakeUint = [&](std::string_view Name, uint64_t &Out,
                      bool Required) -> bool {
    const std::string *C = Get(Name);
    if (!C)
      return !Required;
    Expected<uint64_t> V = parseUint64(*C);
    if (!V)
      return false;
    Out = *V;
    return true;
  };
  auto TakeDouble = [&](std::string_view Name, double &Out) -> bool {
    const std::string *C = Get(Name);
    if (!C)
      return false;
    Expected<double> V = parseDouble(*C);
    if (!V)
      return false;
    Out = *V;
    return true;
  };
  auto TakeBool = [&](std::string_view Name, bool &Out) -> bool {
    const std::string *C = Get(Name);
    if (!C || (*C != "0" && *C != "1"))
      return false;
    Out = *C == "1";
    return true;
  };

  bool Ok = TakeUint("index", R.Index, /*Required=*/true) &&
            TakeBool("expressible", R.Expressible) &&
            TakeBool("valid", R.Valid) &&
            TakeDouble("efficiency", R.Efficiency) &&
            TakeDouble("utilization", R.Utilization) &&
            TakeBool("measured", R.Measured) &&
            TakeDouble("time_seconds", R.TimeSeconds) &&
            TakeDouble("sim_seconds", R.SimSeconds) &&
            TakeUint("cycles", R.Cycles, /*Required=*/true);
  if (!Ok || !Get("point") || !Get("fail_stage") || !Get("fail_code") ||
      !Get("fail_message"))
    return recordError("malformed eval CSV row");

  // Optional columns (absent in pre-observability dumps).
  if (!TakeUint("issue_stall_cycles", R.IssueStallCycles, false) ||
      !TakeUint("mem_queue_wait_cycles", R.MemQueueWaitCycles, false) ||
      !TakeUint("blocks_per_sm", R.BlocksPerSM, false))
    return recordError("malformed eval CSV row");
  if (const std::string *C = Get("fast_bw")) {
    if (*C != "0" && *C != "1")
      return recordError("malformed eval CSV row");
    R.FastBw = *C == "1";
  }

  if (const std::string *P = Get("point"); !P->empty()) {
    Expected<std::vector<int>> V = parseIntList(*P);
    if (!V)
      return recordError("malformed point column: " + V.diag().Message);
    R.Point = V.takeValue();
  }

  const std::string &StageText = *Get("fail_stage");
  const std::string &CodeText = *Get("fail_code");
  R.Message = *Get("fail_message");
  if (!CodeText.empty()) {
    std::optional<ErrorCode> C = errorCodeFromName(CodeText);
    std::optional<Stage> S = stageFromName(StageText);
    if (!C || !S)
      return recordError("unknown fail_code/fail_stage '" + CodeText + "'/'" +
                         StageText + "'");
    R.Code = *C;
    R.At = *S;
  }
  return R;
}
