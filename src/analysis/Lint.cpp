//===- analysis/Lint.cpp --------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/AddressModel.h"
#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "ptx/ResourceEstimator.h"
#include "support/Journal.h"

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <unordered_map>

using namespace g80;

const char *g80::findingCategoryName(FindingCategory C) {
  switch (C) {
  case FindingCategory::Race:
    return "race";
  case FindingCategory::BarrierDivergence:
    return "barrier-divergence";
  case FindingCategory::UniformAnnotation:
    return "uniform-annotation";
  case FindingCategory::Coalescing:
    return "coalescing";
  case FindingCategory::BankConflict:
    return "bank-conflict";
  case FindingCategory::RegPressure:
    return "reg-pressure";
  case FindingCategory::DeadCode:
    return "dead-code";
  case FindingCategory::Unreachable:
    return "unreachable";
  case FindingCategory::UnusedReg:
    return "unused-reg";
  }
  return "?";
}

const char *g80::findingSeverityName(FindingSeverity S) {
  return S == FindingSeverity::Error ? "error" : "warning";
}

unsigned LintResult::errorCount() const {
  unsigned N = 0;
  for (const Finding &F : Findings)
    N += F.Severity == FindingSeverity::Error;
  return N;
}

unsigned LintResult::warningCount() const {
  return unsigned(Findings.size()) - errorCount();
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

namespace {

/// Linearized block-thread enumeration (x fastest, matching warp order).
struct ThreadGrid {
  unsigned BX = 1, BY = 1, BZ = 1, N = 1;

  explicit ThreadGrid(const Dim3 &Block)
      : BX(Block.X), BY(Block.Y), BZ(Block.Z), N(Block.X * Block.Y * Block.Z) {
  }

  void coords(unsigned T, unsigned &X, unsigned &Y, unsigned &Z) const {
    X = T % BX;
    Y = (T / BX) % BY;
    Z = T / (BX * BY);
  }
};

std::vector<unsigned> activeThreads(const MemAccess &A, const ThreadGrid &G) {
  std::vector<unsigned> Ts;
  for (unsigned T = 0; T != G.N; ++T) {
    unsigned X, Y, Z;
    G.coords(T, X, Y, Z);
    bool Active = true;
    for (const ConcreteGuard &Gd : A.Guards)
      if (!guardHolds(Gd, X, Y, Z)) {
        Active = false;
        break;
      }
    if (Active)
      Ts.push_back(T);
  }
  return Ts;
}

/// True when every symbol term's multiplier is thread-uniform, so the
/// symbolic part of the address is identical for all threads of a block.
bool uniformSymMultipliers(const LinExpr &E) {
  for (const SymTerm &T : E.Syms)
    if (T.CT[0] != 0 || T.CT[1] != 0 || T.CT[2] != 0)
      return false;
  return true;
}

bool sameSymTerms(const LinExpr &A, const LinExpr &B) {
  if (A.Syms.size() != B.Syms.size())
    return false;
  for (size_t I = 0; I != A.Syms.size(); ++I)
    if (A.Syms[I].Sym != B.Syms[I].Sym || A.Syms[I].C0 != B.Syms[I].C0)
      return false;
  return true;
}

std::string threadStr(const ThreadGrid &G, unsigned T) {
  unsigned X, Y, Z;
  G.coords(T, X, Y, Z);
  std::string S = "(";
  S.append(std::to_string(X)).append(",").append(std::to_string(Y));
  S.append(",").append(std::to_string(Z)).append(")");
  return S;
}

std::string sharedBufName(const Kernel &K, unsigned Buffer) {
  if (Buffer < K.sharedArrays().size())
    return K.sharedArrays()[Buffer].Name;
  return "shared#" + std::to_string(Buffer);
}

//===----------------------------------------------------------------------===//
// CFG-level checkers
//===----------------------------------------------------------------------===//

void checkUnreachable(const Cfg &G, std::vector<Finding> &Out) {
  for (unsigned B = 0; B != G.numBlocks(); ++B) {
    if (G.reachable(B) || G.blocks()[B].Instrs.empty())
      continue;
    Out.push_back({FindingSeverity::Warning, FindingCategory::Unreachable,
                   G.blocks()[B].InstrIds.front(),
                   "code is unreachable (zero-trip loop body)"});
  }
}

void checkDeadCode(const Cfg &G, const LivenessResult &L,
                   std::vector<Finding> &Out) {
  for (unsigned B : G.rpo()) {
    const BasicBlock &BB = G.blocks()[B];
    RegSet Live = L.LiveOut[B];
    unsigned NumRegs = Live.universe();
    auto InRange = [&](Reg R) { return R.isValid() && R.Id < NumRegs; };
    if (InRange(BB.BranchPred))
      Live.insert(BB.BranchPred.Id);
    for (size_t I = BB.Instrs.size(); I-- > 0;) {
      const Instruction &Ins = *BB.Instrs[I];
      Reg D = instrDef(Ins);
      if (InRange(D)) {
        if (!Live.contains(D.Id))
          Out.push_back({FindingSeverity::Warning, FindingCategory::DeadCode,
                         BB.InstrIds[I],
                         std::string(opcodeName(Ins.Op)) + " result r" +
                             std::to_string(D.Id) + " is never read"});
        Live.erase(D.Id);
      }
      Reg Reads[4];
      unsigned NumReads = instrUses(Ins, Reads);
      for (unsigned U = 0; U != NumReads; ++U)
        if (InRange(Reads[U]))
          Live.insert(Reads[U].Id);
    }
  }
}

void checkUnusedRegs(const Cfg &G, unsigned NumRegs,
                     std::vector<Finding> &Out) {
  DefUseChains Chains = computeDefUse(G, NumRegs);
  std::vector<unsigned> Unused;
  for (unsigned R = 0; R != NumRegs; ++R)
    if (Chains.DefsOf[R].empty() && Chains.UsesOf[R].empty())
      Unused.push_back(R);
  if (Unused.empty())
    return;
  std::string Msg = std::to_string(Unused.size()) +
                    " virtual register(s) allocated but never defined or "
                    "used:";
  for (size_t I = 0; I != Unused.size() && I != 8; ++I)
    Msg += (I ? ", r" : " r") + std::to_string(Unused[I]);
  if (Unused.size() > 8)
    Msg += ", ...";
  Out.push_back(
      {FindingSeverity::Warning, FindingCategory::UnusedReg, ~0u, Msg});
}

void checkRegPressure(const Kernel &K, const Cfg &G, const LivenessResult &L,
                      std::vector<Finding> &Out) {
  // The estimator reserves one system register and walks loop bodies
  // twice, so it must never undershoot the CFG-exact max-live measure.
  unsigned MaxLive = computeMaxLive(G, L) + 1;
  unsigned Estimate = estimateRegisters(K);
  if (MaxLive > Estimate)
    Out.push_back({FindingSeverity::Error, FindingCategory::RegPressure, ~0u,
                   "max-live registers (" + std::to_string(MaxLive) +
                       " incl. system register) exceed the resource "
                       "estimate (" +
                       std::to_string(Estimate) + ")"});
}

//===----------------------------------------------------------------------===//
// Shared-memory race detector
//===----------------------------------------------------------------------===//

/// Decides whether Base + sum_i C_i * k_i can land in [-3, 3] with each
/// k_i in [0, Trip_i).
struct LoopVar {
  long long C = 0;
  uint64_t Trip = 0;
};

bool overlapPossible(long long Base, const std::vector<LoopVar> &Vars,
                     size_t I) {
  if (I == Vars.size())
    return Base >= -3 && Base <= 3;
  const LoopVar &V = Vars[I];
  if (I + 1 == Vars.size()) {
    // Last variable: solve by divisibility instead of enumerating.
    for (long long D = -3; D <= 3; ++D) {
      long long R = D - Base;
      if (R % V.C == 0) {
        long long K = R / V.C;
        if (K >= 0 && K < (long long)V.Trip)
          return true;
      }
    }
    return false;
  }
  for (uint64_t K = 0; K != V.Trip; ++K)
    if (overlapPossible(Base + (long long)K * V.C, Vars, I + 1))
      return true;
  return false;
}

void checkRaces(const Kernel &K, const WalkResult &W, const ThreadGrid &G,
                std::vector<Finding> &Out) {
  // Only accesses the model fully understands participate: known guards,
  // non-wild addresses, and thread-uniform symbol multipliers (terms with
  // thread-affine multipliers do not cancel between distinct threads).
  std::vector<unsigned> Idx;
  for (unsigned I = 0; I != W.Accesses.size(); ++I) {
    const MemAccess &A = W.Accesses[I];
    if (A.Space == MemSpace::Shared && !A.guardUnknown() && !A.Addr.Wild &&
        uniformSymMultipliers(A.Addr))
      Idx.push_back(I);
  }
  if (Idx.empty())
    return;

  std::unordered_map<unsigned, std::vector<unsigned>> Active;
  for (unsigned I : Idx)
    Active.emplace(I, activeThreads(W.Accesses[I], G));

  std::set<std::tuple<unsigned, unsigned, unsigned>> Seen;
  auto Emit = [&](const MemAccess &A, unsigned TA, const MemAccess &B,
                  unsigned TB) {
    unsigned Lo = std::min(A.InstrId, B.InstrId);
    unsigned Hi = std::max(A.InstrId, B.InstrId);
    if (!Seen.insert({Lo, Hi, A.Buffer}).second)
      return;
    auto Kind = [](const MemAccess &M) { return M.IsStore ? "store" : "load"; };
    Out.push_back(
        {FindingSeverity::Error, FindingCategory::Race, Lo,
         "shared-memory race on " + sharedBufName(K, A.Buffer) + ": " +
             Kind(A) + " at #" + std::to_string(A.InstrId) + " by thread " +
             threadStr(G, TA) + " overlaps " + Kind(B) + " at #" +
             std::to_string(B.InstrId) + " by thread " + threadStr(G, TB) +
             " in barrier interval " + std::to_string(A.Interval) +
             " with no bar.sync between"});
  };

  // Canonical deterministic witness for a candidate access pair: the
  // smallest conflicting (t1, t2) in linear thread order.
  auto Witness = [&](unsigned I, unsigned J) {
    const MemAccess &A = W.Accesses[I], &B = W.Accesses[J];
    for (unsigned T1 : Active.at(I)) {
      unsigned X1, Y1, Z1;
      G.coords(T1, X1, Y1, Z1);
      long long A1 = A.Addr.evalTid(X1, Y1, Z1);
      for (unsigned T2 : Active.at(J)) {
        if (T1 == T2)
          continue;
        unsigned X2, Y2, Z2;
        G.coords(T2, X2, Y2, Z2);
        long long A2 = B.Addr.evalTid(X2, Y2, Z2);
        if (A1 - A2 >= -3 && A1 - A2 <= 3) {
          Emit(A, T1, B, T2);
          return;
        }
      }
    }
  };

  // --- Fast path: fully concrete (tid-affine) addresses.  Bucket the
  // 4-byte words each active thread touches per (buffer, interval); a
  // bucket holding a store plus any other thread is a candidate pair.
  struct WordEntry {
    unsigned Acc;
    unsigned T;
  };
  std::map<std::pair<unsigned, unsigned>,
           std::unordered_map<long long, std::vector<WordEntry>>>
      Groups;
  for (unsigned I : Idx) {
    const MemAccess &A = W.Accesses[I];
    if (!A.Addr.isTidAffine())
      continue;
    auto &Words = Groups[{A.Buffer, A.Interval}];
    for (unsigned T : Active.at(I)) {
      unsigned X, Y, Z;
      G.coords(T, X, Y, Z);
      long long Addr = A.Addr.evalTid(X, Y, Z);
      long long W0 = Addr >> 2, W1 = (Addr + 3) >> 2;
      Words[W0].push_back({I, T});
      if (W1 != W0)
        Words[W1].push_back({I, T});
    }
  }
  std::set<std::pair<unsigned, unsigned>> Cands;
  for (const auto &[GroupKey, Words] : Groups) {
    for (const auto &[Word, Entries] : Words) {
      // Summarize per access: its threads on this word.
      std::map<unsigned, std::vector<unsigned>> ByAcc;
      for (const WordEntry &E : Entries)
        ByAcc[E.Acc].push_back(E.T);
      for (auto AIt = ByAcc.begin(); AIt != ByAcc.end(); ++AIt) {
        for (auto BIt = AIt; BIt != ByAcc.end(); ++BIt) {
          const MemAccess &A = W.Accesses[AIt->first];
          const MemAccess &B = W.Accesses[BIt->first];
          if (!A.IsStore && !B.IsStore)
            continue;
          bool DistinctThreads =
              AIt == BIt
                  ? AIt->second.size() > 1
                  : AIt->second.size() > 1 || BIt->second.size() > 1 ||
                        AIt->second.front() != BIt->second.front();
          if (DistinctThreads)
            Cands.insert({AIt->first, BIt->first});
        }
      }
    }
  }
  for (auto [I, J] : Cands)
    Witness(I, J);

  // --- Slow path: pairs with at least one symbolic side (uniform symbol
  // terms and/or loop-iteration terms).
  for (size_t II = 0; II != Idx.size(); ++II) {
    for (size_t JJ = II; JJ != Idx.size(); ++JJ) {
      unsigned I = Idx[II], J = Idx[JJ];
      const MemAccess &A = W.Accesses[I], &B = W.Accesses[J];
      if (A.Addr.isTidAffine() && B.Addr.isTidAffine())
        continue; // Covered by the fast path.
      if (A.Buffer != B.Buffer || A.Interval != B.Interval)
        continue;
      if (!A.IsStore && !B.IsStore)
        continue;
      // Uniform symbol terms must cancel exactly between the two sides.
      if (!sameSymTerms(A.Addr, B.Addr))
        continue;
      // Loop terms become solver variables.  Lockstep (barrier) loops put
      // both threads at the same iteration, so both sides share one
      // variable; barrier-free loops progress per thread, one variable
      // per side.  Symbol-valued coefficients must cancel (lockstep only).
      std::vector<LoopVar> Vars;
      std::map<std::pair<unsigned, unsigned>, long long> Lock;
      bool Bad = false;
      auto AddSide = [&](const LinExpr &E, long long Sign) {
        for (const LoopTerm &T : E.Loops) {
          const WalkLoopInfo &L = W.Loops[T.Loop];
          if (L.PerThread) {
            if (T.Sym != NoSym) {
              Bad = true;
              return;
            }
            Vars.push_back({Sign * T.C, L.TripCount});
          } else {
            Lock[{T.Loop, T.Sym}] += Sign * T.C;
          }
        }
      };
      AddSide(A.Addr, 1);
      AddSide(B.Addr, -1);
      for (const auto &[LockKey, C] : Lock) {
        if (C == 0)
          continue;
        if (LockKey.second != NoSym) {
          Bad = true;
          break;
        }
        Vars.push_back({C, W.Loops[LockKey.first].TripCount});
      }
      if (Bad)
        continue;
      const std::vector<unsigned> &TA = Active.at(I), &TB = Active.at(J);
      if ((uint64_t)TA.size() * TB.size() > 65536)
        continue; // Cap the pairwise work; silence, never a false report.
      if (Vars.size() >= 2) {
        uint64_t Combos = 1;
        for (const LoopVar &V : Vars)
          Combos *= V.Trip;
        if (Combos > 4096)
          continue;
      }
      bool Done = false;
      for (unsigned T1 : TA) {
        unsigned X1, Y1, Z1;
        G.coords(T1, X1, Y1, Z1);
        long long A1 = A.Addr.evalTid(X1, Y1, Z1);
        for (unsigned T2 : TB) {
          if (T1 == T2)
            continue;
          unsigned X2, Y2, Z2;
          G.coords(T2, X2, Y2, Z2);
          long long Base = A1 - B.Addr.evalTid(X2, Y2, Z2);
          if (overlapPossible(Base, Vars, 0)) {
            Emit(A, T1, B, T2);
            Done = true;
            break;
          }
        }
        if (Done)
          break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Bank-conflict analyzer
//===----------------------------------------------------------------------===//

void checkBanks(const Kernel &K, const WalkResult &W, const ThreadGrid &G,
                std::vector<Finding> &Out) {
  std::set<unsigned> Done;
  for (const MemAccess &A : W.Accesses) {
    if (A.Space != MemSpace::Shared || A.Addr.Wild || A.GuardDivergentUnknown)
      continue;
    if (!Done.insert(A.InstrId).second)
      continue;
    // Counted loops execute in lockstep within a warp, so a loop term with
    // a concrete word-multiple coefficient shifts every thread's word
    // uniformly per iteration and leaves the conflict degree unchanged.
    bool Skip = false;
    for (const LoopTerm &T : A.Addr.Loops)
      if (T.Sym != NoSym || T.C % 4 != 0) {
        Skip = true;
        break;
      }
    if (Skip)
      continue;

    unsigned Degree = 1;
    for (unsigned Begin = 0; Begin < G.N && !Skip; Begin += 16) {
      unsigned End = std::min(G.N, Begin + 16);
      std::vector<unsigned> Ts;
      for (unsigned T = Begin; T != End; ++T) {
        unsigned X, Y, Z;
        G.coords(T, X, Y, Z);
        bool ActiveT = true;
        for (const ConcreteGuard &Gd : A.Guards)
          if (!guardHolds(Gd, X, Y, Z)) {
            ActiveT = false;
            break;
          }
        if (ActiveT)
          Ts.push_back(T);
      }
      if (Ts.size() < 2)
        continue;
      // A symbol term is a uniform (word-aligned) shift only when its
      // multiplier is identical across the half-warp's active threads.
      long long Words[16];
      size_t NumWords = 0;
      for (unsigned T : Ts) {
        unsigned X, Y, Z;
        G.coords(T, X, Y, Z);
        for (const SymTerm &S : A.Addr.Syms) {
          unsigned X0, Y0, Z0;
          G.coords(Ts.front(), X0, Y0, Z0);
          long long M = S.C0 + S.CT[0] * (long long)X + S.CT[1] * Y +
                        S.CT[2] * Z;
          long long M0 = S.C0 + S.CT[0] * (long long)X0 + S.CT[1] * Y0 +
                         S.CT[2] * Z0;
          if (M != M0) {
            Skip = true;
            break;
          }
        }
        if (Skip)
          break;
        long long Addr = A.Addr.evalTid(X, Y, Z);
        if (Addr % 4 != 0) {
          Skip = true; // Misaligned: word pattern unknown.
          break;
        }
        Words[NumWords++] = Addr / 4;
      }
      if (Skip)
        break;
      // Degree per bank: distinct words mapping there (same word is a
      // broadcast, not a conflict).
      for (unsigned Bank = 0; Bank != 16; ++Bank) {
        std::set<long long> Distinct;
        for (size_t I = 0; I != NumWords; ++I)
          if (((Words[I] % 16) + 16) % 16 == Bank)
            Distinct.insert(Words[I]);
        Degree = std::max(Degree, unsigned(Distinct.size()));
      }
    }
    if (!Skip && Degree >= 2)
      Out.push_back({FindingSeverity::Warning, FindingCategory::BankConflict,
                     A.InstrId,
                     std::to_string(Degree) +
                         "-way shared-memory bank conflict on " +
                         sharedBufName(K, A.Buffer)});
  }
}

//===----------------------------------------------------------------------===//
// Coalescing cross-check
//===----------------------------------------------------------------------===//

/// The per-thread byte stride of \p E across each half-warp, when it is
/// well defined: symbol multipliers must be half-warp-uniform and all
/// consecutive-thread deltas must agree.
std::optional<long long> strideOf(const LinExpr &E, const ThreadGrid &G) {
  std::optional<long long> Stride;
  for (unsigned Begin = 0; Begin < G.N; Begin += 16) {
    unsigned End = std::min(G.N, Begin + 16);
    for (const SymTerm &S : E.Syms) {
      unsigned X0, Y0, Z0;
      G.coords(Begin, X0, Y0, Z0);
      long long M0 =
          S.C0 + S.CT[0] * (long long)X0 + S.CT[1] * Y0 + S.CT[2] * Z0;
      for (unsigned T = Begin + 1; T < End; ++T) {
        unsigned X, Y, Z;
        G.coords(T, X, Y, Z);
        long long M =
            S.C0 + S.CT[0] * (long long)X + S.CT[1] * Y + S.CT[2] * Z;
        if (M != M0)
          return std::nullopt;
      }
    }
    for (unsigned T = Begin; T + 1 < End; ++T) {
      unsigned X1, Y1, Z1, X2, Y2, Z2;
      G.coords(T, X1, Y1, Z1);
      G.coords(T + 1, X2, Y2, Z2);
      long long D = E.evalTid(X2, Y2, Z2) - E.evalTid(X1, Y1, Z1);
      if (!Stride)
        Stride = D;
      else if (*Stride != D)
        return std::nullopt;
    }
  }
  return Stride;
}

void checkCoalescing(const WalkResult &W, const ThreadGrid &G,
                     std::vector<Finding> &Out) {
  std::map<unsigned, std::vector<const MemAccess *>> ByInstr;
  for (const MemAccess &A : W.Accesses)
    if (A.Space == MemSpace::Global)
      ByInstr[A.InstrId].push_back(&A);
  for (const auto &[Id, Occs] : ByInstr) {
    std::optional<long long> Stride;
    bool Skip = false;
    for (const MemAccess *A : Occs) {
      // Only unconditional accesses: a guard changes which threads of a
      // half-warp participate, and with them the transaction count.
      if (!A->Guards.empty() || A->guardUnknown() || A->Addr.Wild) {
        Skip = true;
        break;
      }
      // Loop terms are warp-uniform per iteration and drop out of the
      // thread-to-thread stride.
      std::optional<long long> S = strideOf(A->Addr, G);
      if (!S || (Stride && *Stride != *S)) {
        Skip = true;
        break;
      }
      Stride = S;
    }
    if (Skip || !Stride)
      continue;
    unsigned Expected = 0;
    if (*Stride == 4)
      Expected = 4; // Perfectly coalesced float accesses.
    else if (*Stride >= 8 && *Stride % 4 == 0)
      Expected = unsigned(std::min<long long>(*Stride, 32));
    else
      continue; // Overlapping/irregular patterns: no verdict.
    const Instruction *I = Occs.front()->I;
    if (I->EffBytesPerThread != Expected)
      Out.push_back({FindingSeverity::Error, FindingCategory::Coalescing, Id,
                     "global access annotated with " +
                         std::to_string(I->EffBytesPerThread) +
                         " effective bytes/thread, but its per-thread "
                         "stride of " +
                         std::to_string(*Stride) + " bytes implies " +
                         std::to_string(Expected)});
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

LintResult g80::runLint(const Kernel &K, const LaunchConfig &Launch) {
  LintResult R;
  Cfg G(K);
  unsigned NumRegs = K.numVRegs();
  LivenessResult Live = computeLiveness(G, NumRegs);
  checkUnreachable(G, R.Findings);
  checkDeadCode(G, Live, R.Findings);
  checkUnusedRegs(G, NumRegs, R.Findings);
  checkRegPressure(K, G, Live, R.Findings);

  ThreadGrid TG(Launch.Block);
  WalkResult W = walkKernel(K, Launch);
  R.Findings.insert(R.Findings.end(), W.Diags.begin(), W.Diags.end());
  checkRaces(K, W, TG, R.Findings);
  checkBanks(K, W, TG, R.Findings);
  checkCoalescing(W, TG, R.Findings);

  std::sort(R.Findings.begin(), R.Findings.end(),
            [](const Finding &A, const Finding &B) {
              return std::tie(A.Severity, A.InstrId, A.Category, A.Message) <
                     std::tie(B.Severity, B.InstrId, B.Category, B.Message);
            });
  return R;
}

ErrorCode g80::lintErrorCode(const LintResult &R) {
  bool Race = false, Annotation = false;
  for (const Finding &F : R.Findings) {
    if (F.Severity != FindingSeverity::Error)
      continue;
    Race |= F.Category == FindingCategory::Race ||
            F.Category == FindingCategory::BarrierDivergence;
    Annotation |= F.Category == FindingCategory::Coalescing ||
                  F.Category == FindingCategory::UniformAnnotation;
  }
  if (Race)
    return ErrorCode::LintRace;
  if (Annotation)
    return ErrorCode::LintAnnotation;
  return ErrorCode::LintFailed;
}

std::string g80::lintErrorSummary(const LintResult &R) {
  std::string S;
  unsigned Shown = 0, Total = 0;
  for (const Finding &F : R.Findings) {
    if (F.Severity != FindingSeverity::Error)
      continue;
    ++Total;
    if (Shown < 2) {
      if (Shown)
        S += "; ";
      S += findingCategoryName(F.Category);
      S += ": ";
      S += F.Message;
      ++Shown;
    }
  }
  if (Total > Shown)
    S += " (+" + std::to_string(Total - Shown) + " more)";
  return S;
}

void g80::renderLintText(const LintResult &R, std::ostream &OS) {
  for (const Finding &F : R.Findings) {
    OS << findingSeverityName(F.Severity) << ": ["
       << findingCategoryName(F.Category) << "] ";
    if (F.InstrId != ~0u)
      OS << "#" << F.InstrId << ": ";
    OS << F.Message << "\n";
  }
}

void g80::renderLintJson(const LintResult &R, std::ostream &OS) {
  OS << "{\"findings\": [";
  for (size_t I = 0; I != R.Findings.size(); ++I) {
    const Finding &F = R.Findings[I];
    OS << (I ? ", " : "") << "{\"severity\": \""
       << findingSeverityName(F.Severity) << "\", \"category\": \""
       << findingCategoryName(F.Category) << "\", \"instr\": ";
    if (F.InstrId != ~0u)
      OS << F.InstrId;
    else
      OS << "null";
    OS << ", \"msg\": \"" << jsonEscape(F.Message) << "\"}";
  }
  OS << "], \"errors\": " << R.errorCount()
     << ", \"warnings\": " << R.warningCount() << "}";
}
