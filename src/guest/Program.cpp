//===- guest/Program.cpp - Guest program container -------------------------===//

#include "guest/Program.h"

#include "support/Format.h"

#include <cassert>

using namespace tpdbt;
using namespace tpdbt::guest;

uint64_t Program::staticInstCount() const {
  uint64_t N = 0;
  for (const auto &B : Blocks)
    N += B.Insts.size() + 1; // terminator counts as one instruction
  return N;
}

bool tpdbt::guest::verifyProgram(const Program &P,
                                 std::vector<std::string> *Errors) {
  bool Ok = true;
  auto Fail = [&](std::string Msg) {
    Ok = false;
    if (Errors)
      Errors->push_back(std::move(Msg));
  };

  if (P.Blocks.empty()) {
    Fail("program has no blocks");
    return false;
  }
  if (P.Entry >= P.Blocks.size())
    Fail(formatString("entry block %u out of range", P.Entry));
  if (P.InitialMem.size() > P.MemWords)
    Fail("initial memory larger than memory size");

  for (size_t Id = 0; Id < P.Blocks.size(); ++Id) {
    const Block &B = P.Blocks[Id];
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      const Inst &In = B.Insts[I];
      auto CheckReg = [&](uint8_t R, const char *Role) {
        if (R >= NumRegs)
          Fail(formatString("block %zu inst %zu: %s register %u out of "
                            "range",
                            Id, I, Role, R));
      };
      if (opcodeWritesRd(In.Op))
        CheckReg(In.Rd, "dest");
      if (opcodeReadsRa(In.Op))
        CheckReg(In.Ra, "ra");
      if (opcodeReadsRb(In.Op))
        CheckReg(In.Rb, "rb");
    }
    const Terminator &T = B.Term;
    auto CheckTarget = [&](BlockId Target, const char *Role) {
      if (Target >= P.Blocks.size())
        Fail(formatString("block %zu: %s target %u out of range", Id, Role,
                          Target));
    };
    switch (T.Kind) {
    case TermKind::Jump:
      CheckTarget(T.Taken, "jump");
      break;
    case TermKind::Branch:
      CheckTarget(T.Taken, "taken");
      CheckTarget(T.Fallthrough, "fallthrough");
      if (T.Ra >= NumRegs)
        Fail(formatString("block %zu: branch ra out of range", Id));
      if (!condUsesImm(T.Cond) && T.Rb >= NumRegs)
        Fail(formatString("block %zu: branch rb out of range", Id));
      break;
    case TermKind::Halt:
      break;
    }
  }
  return Ok;
}

static std::string instToString(const Inst &In) {
  std::string S = formatString("    %-8s", opcodeName(In.Op));
  if (opcodeWritesRd(In.Op))
    S += formatString(" r%u", In.Rd);
  if (opcodeReadsRa(In.Op))
    S += formatString(" r%u", In.Ra);
  if (opcodeReadsRb(In.Op))
    S += formatString(" r%u", In.Rb);
  if (opcodeUsesImm(In.Op))
    S += formatString(" #%lld", static_cast<long long>(In.Imm));
  return S;
}

std::string tpdbt::guest::disassemble(const Program &P) {
  std::string Out = formatString("program %s (entry b%u, %llu mem words)\n",
                                 P.Name.c_str(), P.Entry,
                                 static_cast<unsigned long long>(P.MemWords));
  for (size_t Id = 0; Id < P.Blocks.size(); ++Id) {
    const Block &B = P.Blocks[Id];
    Out += formatString("b%zu%s%s:\n", Id, B.Name.empty() ? "" : " ",
                        B.Name.c_str());
    for (const Inst &In : B.Insts) {
      Out += instToString(In);
      Out += '\n';
    }
    const Terminator &T = B.Term;
    switch (T.Kind) {
    case TermKind::Jump:
      Out += formatString("    jump     b%u\n", T.Taken);
      break;
    case TermKind::Branch:
      Out += formatString("    br.%-5s r%u", condKindName(T.Cond), T.Ra);
      if (condUsesImm(T.Cond))
        Out += formatString(" #%lld", static_cast<long long>(T.Imm));
      else
        Out += formatString(" r%u", T.Rb);
      Out += formatString(" -> b%u else b%u\n", T.Taken, T.Fallthrough);
      break;
    case TermKind::Halt:
      Out += "    halt\n";
      break;
    }
  }
  return Out;
}
