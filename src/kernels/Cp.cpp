//===- kernels/Cp.cpp -----------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "kernels/Cp.h"

#include "emu/Emulator.h"
#include "kernels/Workloads.h"
#include "ptx/Builder.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace g80;

namespace {

struct CpConfig {
  unsigned BlockX;   ///< Block width (16 in the small tier).
  unsigned BlockY;   ///< Block is BlockX x BlockY threads.
  unsigned Tiling;   ///< F: points per thread along x.
  unsigned YTile;    ///< Points per thread along y, BlockY rows apart.
  unsigned Unroll;   ///< Atom-loop unroll factor.
  bool Coalesce;     ///< Strided (true) vs adjacent (false) point layout.
};

CpConfig decode(const ConfigSpace &S, const ConfigPoint &P) {
  CpConfig C;
  C.BlockX = S.hasDim("blockx")
                 ? static_cast<unsigned>(S.valueOf(P, "blockx"))
                 : 16;
  C.BlockY = static_cast<unsigned>(S.valueOf(P, "blocky"));
  C.Tiling = static_cast<unsigned>(S.valueOf(P, "tiling"));
  C.YTile = S.hasDim("ytile")
                ? static_cast<unsigned>(S.valueOf(P, "ytile"))
                : 1;
  C.Unroll = S.hasDim("unroll")
                 ? static_cast<unsigned>(S.valueOf(P, "unroll"))
                 : 1;
  C.Coalesce = S.valueOf(P, "coalesce") != 0;
  return C;
}

/// Deterministic atom set within the grid's bounding box.
std::vector<CpAtom> makeAtoms(const CpProblem &P) {
  Rng R(0xA7035 + P.NumAtoms);
  std::vector<CpAtom> Atoms(P.NumAtoms);
  float MaxX = P.Spacing * static_cast<float>(P.W);
  float MaxY = P.Spacing * static_cast<float>(P.H);
  for (CpAtom &A : Atoms) {
    A.X = R.nextFloatIn(0, MaxX);
    A.Y = R.nextFloatIn(0, MaxY);
    // Keep atoms off the z=0 slice so no potential diverges.
    A.Z = R.nextFloatIn(0.2f, 2.0f);
    A.Charge = R.nextFloatIn(-1.0f, 1.0f);
  }
  return Atoms;
}

} // namespace

CpApp::CpApp(CpProblem Problem, SpaceTier Tier)
    : Problem(Problem), Atoms(makeAtoms(Problem)) {
  if (Tier == SpaceTier::Small) {
    Space.addDim("blocky", {2, 4, 8, 16});
    Space.addDim("tiling", {1, 2, 4, 8, 16});
    Space.addDim("coalesce", {0, 1});
    return;
  }
  // Large tier: 6*10*16*4*14*2 = 107,520 raw points.
  Space.addDim("blockx", {1, 2, 4, 8, 16, 32});
  Space.addDim("blocky", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32});
  Space.addDim("tiling",
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Space.addDim("ytile", {1, 2, 4, 8});
  Space.addDim("unroll",
               {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128});
  Space.addDim("coalesce", {0, 1});
}

bool CpApp::isExpressible(const ConfigPoint &P) const {
  CpConfig C = decode(Space, P);
  return Problem.W % (C.BlockX * C.Tiling) == 0 &&
         Problem.H % (C.BlockY * C.YTile) == 0 &&
         Problem.NumAtoms % C.Unroll == 0 &&
         C.BlockX * C.BlockY <= 512; // G80 thread-block size cap.
}

LaunchConfig CpApp::launch(const ConfigPoint &P) const {
  CpConfig C = decode(Space, P);
  return LaunchConfig(Dim3(Problem.W / (C.BlockX * C.Tiling),
                           Problem.H / (C.BlockY * C.YTile)),
                      Dim3(C.BlockX, C.BlockY));
}

Kernel CpApp::buildKernel(const ConfigPoint &P) const {
  assert(isExpressible(P) && "building an inexpressible configuration");
  CpConfig C = decode(Space, P);
  const unsigned F = C.Tiling;
  const unsigned BX = C.BlockX;
  const unsigned TY = C.YTile;
  const unsigned U = C.Unroll;

  std::string Name = "cp_";
  if (BX != 16)
    Name.append("bx").append(std::to_string(BX)).append("_");
  Name.append("by").append(std::to_string(C.BlockY));
  if (TY > 1)
    Name.append("x").append(std::to_string(TY));
  Name.append("_f").append(std::to_string(F));
  if (U > 1)
    Name.append("_u").append(std::to_string(U));
  Name.append(C.Coalesce ? "_co" : "_nc");
  KernelBuilder B(std::move(Name));
  // Atom records are (x, y, z^2, q), 16 bytes each, in constant memory —
  // z^2 precomputed host-side since the slice sits at z = 0.
  unsigned PAtoms = B.addConstPtr("atoms");
  unsigned POut = B.addGlobalPtr("out");
  unsigned PSpacing = B.addScalarF32("spacing");
  unsigned PWidth = B.addScalarS32("gridW");

  //===--- Prologue ---------------------------------------------------------//
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Ty = B.mov(B.special(SpecialReg::TidY));
  Reg Spacing = B.mov(B.param(PSpacing));
  Reg GridW = B.mov(B.param(PWidth));

  // First x index of this thread's points, and the element stride
  // between them: strided-by-BlockX when coalescing, adjacent otherwise.
  Reg XIdx0;
  unsigned PointStride;
  if (C.Coalesce) {
    XIdx0 = B.madi(B.special(SpecialReg::CtaIdX), B.imm(int32_t(BX * F)), Tx);
    PointStride = BX;
  } else {
    Reg Linear =
        B.madi(B.special(SpecialReg::CtaIdX), B.imm(int32_t(BX)), Tx);
    XIdx0 = B.muli(Linear, B.imm(int32_t(F)));
    PointStride = 1;
  }
  // This thread's y rows: row t sits BlockY rows below the previous, the
  // same strided layout the x tiling uses.
  std::vector<Reg> YIdxT(TY), YCoordT(TY);
  for (unsigned T = 0; T != TY; ++T) {
    YIdxT[T] = T == 0 ? B.madi(B.special(SpecialReg::CtaIdY),
                               B.imm(int32_t(C.BlockY * TY)), Ty)
                      : B.addi(YIdxT[0], B.imm(int32_t(T * C.BlockY)));
    YCoordT[T] = B.mulf(B.cvtFI(YIdxT[T]), Spacing);
  }

  // Per-point x coordinates and accumulators stay in registers for the
  // whole atom loop — the register pressure that caps this space's
  // occupancy at high tiling factors.
  std::vector<Reg> XCoord(F), Acc(size_t(F) * TY);
  Reg XIdxF = B.cvtFI(XIdx0);
  for (unsigned R = 0; R != F; ++R) {
    Reg Xi = R == 0 ? XIdxF
                    : B.addf(XIdxF, B.imm(float(R * PointStride)));
    XCoord[R] = B.mulf(Xi, Spacing);
    for (unsigned T = 0; T != TY; ++T)
      Acc[T * F + R] = B.mov(B.imm(0.0f));
  }

  //===--- Atom loop --------------------------------------------------------//
  Reg CAddr = B.mov(B.imm(0));
  B.forLoop(Problem.NumAtoms / U, [&] {
    for (unsigned Uu = 0; Uu != U; ++Uu) {
      int32_t AOff = int32_t(Uu * 16);
      Reg Ax = B.ldConst(PAtoms, CAddr, AOff + 0);
      Reg Ay = B.ldConst(PAtoms, CAddr, AOff + 4);
      Reg Az2 = B.ldConst(PAtoms, CAddr, AOff + 8);
      Reg Aq = B.ldConst(PAtoms, CAddr, AOff + 12);
      std::vector<Reg> DyZT(TY);
      for (unsigned T = 0; T != TY; ++T) {
        Reg Dy = B.subf(YCoordT[T], Ay);
        DyZT[T] = B.madf(Dy, Dy, Az2);
      }
      for (unsigned T = 0; T != TY; ++T) {
        for (unsigned R = 0; R != F; ++R) {
          Reg Dx = B.subf(XCoord[R], Ax);
          Reg R2 = B.madf(Dx, Dx, DyZT[T]);
          Reg RInv = B.rsqrtf(R2);
          B.madfAcc(Acc[T * F + R], Aq, RInv);
        }
      }
    }
    B.addiTo(CAddr, CAddr, B.imm(int32_t(16 * U)));
  });

  //===--- Epilogue ---------------------------------------------------------//
  // Strided points: each half-warp stores BlockX consecutive words per
  // point (fully coalesced at 16-wide blocks, partially below).  Adjacent
  // points: thread stores are F words apart, so a half-warp's accesses
  // serialize into per-thread transactions.
  unsigned CoalBytes = BX >= 16 ? 4 : std::min(32u, 64u / BX);
  unsigned EffSt =
      C.Coalesce || F == 1 ? CoalBytes : (F >= 8 ? 32 : 4 * F);
  for (unsigned T = 0; T != TY; ++T) {
    Reg OutIdx = B.madi(YIdxT[T], GridW, XIdx0);
    Reg OutAddr = B.shli(OutIdx, B.imm(2));
    for (unsigned R = 0; R != F; ++R)
      B.stGlobal(POut, OutAddr, int32_t(R * PointStride * 4),
                 Acc[T * F + R], EffSt);
  }

  return B.take();
}

double CpApp::verifyConfig(const ConfigPoint &P) const {
  // Pack atoms as (x, y, z^2, q) for the constant buffer.
  std::vector<float> AtomData;
  AtomData.reserve(Atoms.size() * 4);
  for (const CpAtom &A : Atoms) {
    AtomData.push_back(A.X);
    AtomData.push_back(A.Y);
    AtomData.push_back(A.Z * A.Z);
    AtomData.push_back(A.Charge);
  }
  DeviceBuffer AtomBuf = DeviceBuffer::fromFloats(AtomData);
  DeviceBuffer OutBuf =
      DeviceBuffer::zeroed(size_t(Problem.W) * Problem.H);

  Kernel K = buildKernel(P);
  LaunchBindings Bind(K);
  Bind.bindBuffer(0, &AtomBuf);
  Bind.bindBuffer(1, &OutBuf);
  Bind.setF32(2, Problem.Spacing);
  Bind.setS32(3, int32_t(Problem.W));
  if (!emulateKernel(K, launch(P), Bind))
    return std::numeric_limits<double>::infinity();

  std::vector<float> Want(size_t(Problem.W) * Problem.H);
  cpRef(Problem.W, Problem.H, Problem.Spacing, Atoms, Want);
  std::vector<float> Got = OutBuf.toFloats();
  return maxRelError(Got, Want, /*Floor=*/1e-2);
}
