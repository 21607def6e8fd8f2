//===- serve/Protocol.cpp -------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Journal.h"

#include <cstdio>
#include <sstream>

using namespace g80;

std::string g80::serveDouble(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

namespace {

Diagnostic protoError(std::string Msg) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Msg));
}

void putBool(std::ostringstream &OS, const char *Key, bool V) {
  OS << ",\"" << Key << "\":" << (V ? "true" : "false");
}

/// The flat-JSON helpers (support/Journal.h) parse exactly what we
/// serialize: no whitespace between tokens.  Frames from foreign clients
/// (python's json.dumps, pretty-printers) legitimately contain it, so
/// normalize by dropping all whitespace outside string literals before
/// field extraction.
/// Parses "key":["s1","s2",...] from normalized flat JSON into \p Out.
/// Returns false (leaving \p Out untouched) when the key is absent or the
/// array is malformed.
bool jsonStringArrayField(const std::string &Json, const char *Key,
                          std::vector<std::string> &Out) {
  std::string Needle = "\"";
  Needle.append(Key).append("\":[");
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return false;
  size_t I = At + Needle.size();
  std::vector<std::string> Items;
  if (I < Json.size() && Json[I] == ']') {
    Out = std::move(Items);
    return true;
  }
  while (I < Json.size()) {
    if (Json[I] != '"')
      return false;
    size_t Start = ++I;
    while (I < Json.size() && Json[I] != '"') {
      if (Json[I] == '\\')
        ++I;
      ++I;
    }
    if (I >= Json.size())
      return false;
    Items.push_back(jsonUnescape(Json.substr(Start, I - Start)));
    ++I; // closing quote
    if (I < Json.size() && Json[I] == ',') {
      ++I;
      continue;
    }
    if (I < Json.size() && Json[I] == ']') {
      Out = std::move(Items);
      return true;
    }
    return false;
  }
  return false;
}

std::string stripInterTokenWhitespace(std::string_view Json) {
  std::string Out;
  Out.reserve(Json.size());
  bool InString = false;
  for (size_t I = 0; I < Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      Out += C;
      if (C == '\\' && I + 1 < Json.size())
        Out += Json[++I];
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
      continue;
    Out += C;
    if (C == '"')
      InString = true;
  }
  return Out;
}

} // namespace

std::string g80::frameType(std::string_view Json) {
  std::string Norm = stripInterTokenWhitespace(Json);
  std::string Type;
  jsonStringField(Norm, "type", Type);
  return Type;
}

//===--- TuneRequest ----------------------------------------------------------//

std::string TuneRequest::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"tune\",\"app\":\"" << jsonEscape(App)
     << "\",\"machine\":\"" << jsonEscape(Machine) << "\",\"strategy\":\""
     << jsonEscape(Strategy) << "\",\"space\":\"" << jsonEscape(Space)
     << "\",\"seed\":" << Seed << ",\"budget\":" << Budget;
  putBool(OS, "fastbw", FastBw);
  putBool(OS, "lint", Lint);
  OS << ",\"deadline\":" << serveDouble(DeadlineSeconds);
  putBool(OS, "wait", Wait);
  OS << "}";
  return OS.str();
}

Expected<TuneRequest> TuneRequest::fromJson(std::string_view Raw) {
  std::string Json = stripInterTokenWhitespace(Raw);
  TuneRequest R;
  if (!jsonStringField(Json, "app", R.App) || R.App.empty())
    return protoError("tune request needs an \"app\" field");
  // Everything else is optional with defaults; present-but-garbled fields
  // keep their defaults (the flat-JSON helpers return false for both).
  jsonStringField(Json, "machine", R.Machine);
  jsonStringField(Json, "strategy", R.Strategy);
  // Pre-tier clients omit "space"; they mean the small spaces.
  jsonStringField(Json, "space", R.Space);
  jsonUintField(Json, "seed", R.Seed);
  jsonUintField(Json, "budget", R.Budget);
  jsonBoolField(Json, "fastbw", R.FastBw);
  jsonBoolField(Json, "lint", R.Lint);
  jsonDoubleField(Json, "deadline", R.DeadlineSeconds);
  jsonBoolField(Json, "wait", R.Wait);
  if (R.DeadlineSeconds < 0)
    return protoError("tune request \"deadline\" must be >= 0");
  return R;
}

//===--- TuneResult -----------------------------------------------------------//

std::string TuneResult::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"result\",\"id\":\"" << jsonEscape(Id)
     << "\",\"app\":\"" << jsonEscape(Req.App) << "\",\"machine\":\""
     << jsonEscape(Req.Machine) << "\",\"strategy\":\""
     << jsonEscape(Req.Strategy) << "\",\"space\":\""
     << jsonEscape(Req.Space) << "\",\"seed\":" << Req.Seed
     << ",\"budget\":" << Req.Budget;
  putBool(OS, "fastbw", Req.FastBw);
  putBool(OS, "lint", Req.Lint);
  OS << ",\"status\":\"" << jsonEscape(Status) << "\"";
  if (!Error.empty())
    OS << ",\"error\":\"" << jsonEscape(Error) << "\"";
  OS << ",\"valid\":" << Valid << ",\"measured\":" << Measured
     << ",\"quarantined\":" << Quarantined << ",\"best\":\""
     << jsonEscape(Best) << "\",\"best_time\":" << serveDouble(BestTime)
     << ",\"total_measured_seconds\":" << serveDouble(TotalMeasuredSeconds)
     << "}";
  return OS.str();
}

Expected<TuneResult> TuneResult::fromJson(std::string_view Raw) {
  std::string Json = stripInterTokenWhitespace(Raw);
  TuneResult R;
  if (!jsonStringField(Json, "id", R.Id) ||
      !jsonStringField(Json, "status", R.Status) ||
      !jsonStringField(Json, "app", R.Req.App))
    return protoError("malformed result frame");
  jsonStringField(Json, "machine", R.Req.Machine);
  jsonStringField(Json, "strategy", R.Req.Strategy);
  jsonStringField(Json, "space", R.Req.Space);
  jsonUintField(Json, "seed", R.Req.Seed);
  jsonUintField(Json, "budget", R.Req.Budget);
  jsonBoolField(Json, "fastbw", R.Req.FastBw);
  jsonBoolField(Json, "lint", R.Req.Lint);
  jsonStringField(Json, "error", R.Error);
  jsonUintField(Json, "valid", R.Valid);
  jsonUintField(Json, "measured", R.Measured);
  jsonUintField(Json, "quarantined", R.Quarantined);
  jsonStringField(Json, "best", R.Best);
  jsonDoubleField(Json, "best_time", R.BestTime);
  jsonDoubleField(Json, "total_measured_seconds", R.TotalMeasuredSeconds);
  return R;
}

//===--- ShardRequest ---------------------------------------------------------//

std::string ShardRequest::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"shard\",\"app\":\"" << jsonEscape(Tune.App)
     << "\",\"machine\":\"" << jsonEscape(Tune.Machine)
     << "\",\"strategy\":\"" << jsonEscape(Tune.Strategy)
     << "\",\"space\":\"" << jsonEscape(Tune.Space)
     << "\",\"seed\":" << Tune.Seed << ",\"budget\":" << Tune.Budget;
  putBool(OS, "fastbw", Tune.FastBw);
  putBool(OS, "lint", Tune.Lint);
  OS << ",\"plan_fp\":" << PlanFp << ",\"shard\":" << ShardIndex
     << ",\"begin\":" << Begin << ",\"end\":" << End << "}";
  return OS.str();
}

Expected<ShardRequest> ShardRequest::fromJson(std::string_view Raw) {
  std::string Json = stripInterTokenWhitespace(Raw);
  ShardRequest R;
  if (!jsonStringField(Json, "app", R.Tune.App) || R.Tune.App.empty())
    return protoError("shard request needs an \"app\" field");
  jsonStringField(Json, "machine", R.Tune.Machine);
  jsonStringField(Json, "strategy", R.Tune.Strategy);
  jsonStringField(Json, "space", R.Tune.Space);
  jsonUintField(Json, "seed", R.Tune.Seed);
  jsonUintField(Json, "budget", R.Tune.Budget);
  jsonBoolField(Json, "fastbw", R.Tune.FastBw);
  jsonBoolField(Json, "lint", R.Tune.Lint);
  if (!jsonUintField(Json, "plan_fp", R.PlanFp))
    return protoError("shard request needs a \"plan_fp\" field");
  jsonUintField(Json, "shard", R.ShardIndex);
  jsonUintField(Json, "begin", R.Begin);
  if (!jsonUintField(Json, "end", R.End) || R.End < R.Begin)
    return protoError("shard request needs \"end\" >= \"begin\"");
  return R;
}

//===--- ShardResult ----------------------------------------------------------//

std::string ShardResult::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"shard_result\",\"shard\":" << ShardIndex
     << ",\"plan_fp\":" << PlanFp << ",\"begin\":" << Begin
     << ",\"end\":" << End << ",\"status\":\"" << jsonEscape(Status)
     << "\"";
  if (!Error.empty())
    OS << ",\"error\":\"" << jsonEscape(Error) << "\"";
  OS << ",\"records\":[";
  for (size_t I = 0; I < Records.size(); ++I)
    OS << (I ? "," : "") << "\"" << jsonEscape(Records[I]) << "\"";
  OS << "]}";
  return OS.str();
}

Expected<ShardResult> ShardResult::fromJson(std::string_view Raw) {
  std::string Json = stripInterTokenWhitespace(Raw);
  ShardResult R;
  if (!jsonStringField(Json, "status", R.Status))
    return protoError("malformed shard_result frame");
  jsonUintField(Json, "shard", R.ShardIndex);
  jsonUintField(Json, "plan_fp", R.PlanFp);
  jsonUintField(Json, "begin", R.Begin);
  jsonUintField(Json, "end", R.End);
  jsonStringField(Json, "error", R.Error);
  if (!jsonStringArrayField(Json, "records", R.Records) && R.completed())
    return protoError("shard_result frame has a malformed \"records\" "
                      "array");
  return R;
}

//===--- ServeStatus ----------------------------------------------------------//

std::string ServeStatus::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"status\",\"queue_depth\":" << QueueDepth
     << ",\"queue_limit\":" << QueueLimit << ",\"active\":" << Active
     << ",\"completed\":" << Completed << ",\"shed\":" << Shed
     << ",\"recovered\":" << Recovered << ",\"cache_hits\":" << CacheHits
     << ",\"cache_misses\":" << CacheMisses
     << ",\"cache_hit_rate\":" << serveDouble(cacheHitRate())
     << ",\"shards_served\":" << ShardsServed
     << ",\"uptime_seconds\":" << serveDouble(UptimeSeconds);
  putBool(OS, "draining", Draining);
  OS << "}";
  return OS.str();
}

Expected<ServeStatus> ServeStatus::fromJson(std::string_view Raw) {
  std::string Json = stripInterTokenWhitespace(Raw);
  ServeStatus S;
  if (!jsonUintField(Json, "queue_depth", S.QueueDepth))
    return protoError("malformed status frame");
  jsonUintField(Json, "queue_limit", S.QueueLimit);
  jsonUintField(Json, "active", S.Active);
  jsonUintField(Json, "completed", S.Completed);
  jsonUintField(Json, "shed", S.Shed);
  jsonUintField(Json, "recovered", S.Recovered);
  jsonUintField(Json, "cache_hits", S.CacheHits);
  jsonUintField(Json, "cache_misses", S.CacheMisses);
  jsonUintField(Json, "shards_served", S.ShardsServed);
  jsonDoubleField(Json, "uptime_seconds", S.UptimeSeconds);
  jsonBoolField(Json, "draining", S.Draining);
  return S;
}

//===--- Canned frames --------------------------------------------------------//

std::string g80::acceptedFrame(const std::string &Id) {
  return "{\"type\":\"accepted\",\"id\":\"" + jsonEscape(Id) + "\"}";
}

std::string g80::overloadedFrame(uint64_t QueueDepth, uint64_t QueueLimit) {
  std::ostringstream OS;
  OS << "{\"type\":\"overloaded\",\"error\":\"admission queue full\","
        "\"queue_depth\":"
     << QueueDepth << ",\"queue_limit\":" << QueueLimit << "}";
  return OS.str();
}

std::string g80::errorFrame(const std::string &Message) {
  return "{\"type\":\"error\",\"error\":\"" + jsonEscape(Message) + "\"}";
}

std::string g80::progressFrame(const std::string &Id, uint64_t Done,
                               uint64_t Total, uint64_t Quarantined) {
  std::ostringstream OS;
  OS << "{\"type\":\"progress\",\"id\":\"" << jsonEscape(Id)
     << "\",\"done\":" << Done << ",\"total\":" << Total
     << ",\"quarantined\":" << Quarantined << "}";
  return OS.str();
}

std::string g80::okFrame() { return "{\"type\":\"ok\"}"; }
