//===- ptx/Printer.cpp ----------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ptx/Printer.h"

#include "ptx/Kernel.h"
#include "support/ErrorHandling.h"

#include <bit>
#include <cstdio>
#include <ostream>
#include <sstream>

using namespace g80;

namespace {

/// Walks the structured body with an indentation level.
class PrinterImpl {
public:
  PrinterImpl(const Kernel &K, std::ostream &OS) : K(K), OS(OS) {}

  void run() {
    OS << ".entry " << K.name() << " (";
    const auto &Params = K.params();
    for (size_t I = 0; I != Params.size(); ++I) {
      if (I != 0)
        OS << ", ";
      OS << paramKindName(Params[I].Kind) << ' ' << Params[I].Name;
    }
    OS << ")\n";
    for (const SharedArray &A : K.sharedArrays())
      OS << "  .shared " << A.Name << '[' << A.Bytes << "]  // offset "
         << A.ByteOffset << '\n';
    if (K.localBytesPerThread() != 0)
      OS << "  .local " << K.localBytesPerThread() << " bytes/thread\n";
    OS << "{\n";
    printBody(K.body(), 1);
    OS << "}\n";
  }

private:
  static const char *paramKindName(ParamKind Kind) {
    switch (Kind) {
    case ParamKind::GlobalPtr:
      return ".param .global .f32*";
    case ParamKind::ConstPtr:
      return ".param .const .f32*";
    case ParamKind::TexPtr:
      return ".param .texref";
    case ParamKind::F32:
      return ".param .f32";
    case ParamKind::S32:
      return ".param .s32";
    }
    G80_UNREACHABLE("unknown param kind");
  }

  void indent(unsigned Level) {
    for (unsigned I = 0; I != Level; ++I)
      OS << "  ";
  }

  void printBody(const Body &B, unsigned Level) {
    for (const BodyNode &N : B) {
      if (N.isInstr()) {
        indent(Level);
        printInstr(N.instr());
        OS << '\n';
      } else if (N.isLoop()) {
        indent(Level);
        OS << "loop x" << N.loop().TripCount << " {\n";
        printBody(N.loop().LoopBody, Level + 1);
        indent(Level);
        OS << "}\n";
      } else {
        const If &IfN = N.ifNode();
        indent(Level);
        OS << (IfN.Uniform ? "@uniform " : "@divergent ") << '%'
           << regName(IfN.Pred) << " if {\n";
        printBody(IfN.Then, Level + 1);
        if (!IfN.Else.empty()) {
          indent(Level);
          OS << "} else {\n";
          printBody(IfN.Else, Level + 1);
        }
        indent(Level);
        OS << "}\n";
      }
    }
  }

  static std::string regName(Reg R) {
    if (!R.isValid())
      return "<none>";
    std::string S = "r";
    S.append(std::to_string(R.Id));
    return S;
  }

  void printOperand(const Operand &O) {
    switch (O.kind()) {
    case Operand::Kind::None:
      OS << "<none>";
      return;
    case Operand::Kind::Reg:
      OS << '%' << regName(O.getReg());
      return;
    case Operand::Kind::ImmF32: {
      // PTX's bit-exact float syntax, with a readable hint.  Keeping the
      // bits exact makes print -> parse -> print a true round trip.
      float V = O.getImmF32();
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "0f%08X /*%g*/",
                    std::bit_cast<uint32_t>(V), V);
      OS << Buf;
      return;
    }
    case Operand::Kind::ImmS32:
      OS << O.getImmS32();
      return;
    case Operand::Kind::Special:
      OS << specialRegName(O.getSpecial());
      return;
    case Operand::Kind::Param:
      OS << '[' << K.params()[O.getParamIndex()].Name << ']';
      return;
    }
    G80_UNREACHABLE("unknown operand kind");
  }

  void printAddress(const Instruction &I) {
    OS << '[';
    if (I.Space == MemSpace::Shared)
      OS << K.sharedArrays()[I.BufferParam].Name;
    else if (I.Space == MemSpace::Local)
      OS << "local";
    else
      OS << K.params()[I.BufferParam].Name;
    if (!I.AddrBase.isNone()) {
      OS << " + ";
      printOperand(I.AddrBase);
    }
    if (I.AddrOffset != 0)
      OS << " + " << I.AddrOffset;
    OS << ']';
  }

  void printInstr(const Instruction &I) {
    if (I.Op == Opcode::Bar) {
      OS << "bar.sync 0;";
      return;
    }
    if (I.Op == Opcode::Ld) {
      OS << "ld." << memSpaceName(I.Space) << ".f32 %" << regName(I.Dst)
         << ", ";
      printAddress(I);
      OS << ';';
      if (I.Space == MemSpace::Global || I.Space == MemSpace::Local)
        OS << "  // " << unsigned(I.EffBytesPerThread) << "B/thread DRAM";
      return;
    }
    if (I.Op == Opcode::St) {
      OS << "st." << memSpaceName(I.Space) << ".f32 ";
      printAddress(I);
      OS << ", ";
      printOperand(I.A);
      OS << ';';
      if (I.Space == MemSpace::Global || I.Space == MemSpace::Local)
        OS << "  // " << unsigned(I.EffBytesPerThread) << "B/thread DRAM";
      return;
    }

    OS << opcodeName(I.Op);
    if (I.Op == Opcode::SetPF || I.Op == Opcode::SetPI)
      OS << '.' << cmpKindName(I.Cmp);
    OS << ' ';
    if (I.Dst.isValid())
      OS << '%' << regName(I.Dst);
    const Operand *Srcs[] = {&I.A, &I.B, &I.C};
    for (const Operand *Src : Srcs) {
      if (Src->isNone())
        continue;
      OS << ", ";
      printOperand(*Src);
    }
    OS << ';';
  }

  const Kernel &K;
  std::ostream &OS;
};

} // namespace

void g80::printKernel(const Kernel &K, std::ostream &OS) {
  PrinterImpl(K, OS).run();
}

std::string g80::kernelToString(const Kernel &K) {
  std::ostringstream OS;
  printKernel(K, OS);
  return OS.str();
}
