//===- vm/Interpreter.cpp - Block-level guest interpreter ------------------===//

#include "vm/Interpreter.h"

#include <cstdint>

using namespace tpdbt;
using namespace tpdbt::vm;
using namespace tpdbt::guest;

Interpreter::Interpreter(const Program &P) : P(P) {
  const size_t N = P.numBlocks();
  First.reserve(N + 1);
  Terms.reserve(N);
  size_t TotalOps = 0;
  for (const Block &B : P.Blocks)
    TotalOps += B.Insts.size();
  Ops.reserve(TotalOps);

  for (const Block &B : P.Blocks) {
    First.push_back(static_cast<uint32_t>(Ops.size()));

    DecodedTerm T{};
    T.Taken = B.Term.Taken;
    T.Fall = B.Term.Fallthrough;
    T.Imm = B.Term.Imm;
    T.Ra = B.Term.Ra;
    T.Rb = B.Term.Rb;
    switch (B.Term.Kind) {
    case TermKind::Jump:
      T.Code = TermCode::Jump;
      break;
    case TermKind::Halt:
      T.Code = TermCode::Halt;
      break;
    case TermKind::Branch:
      T.Code = TermCode::Branch;
      T.Cond = static_cast<uint8_t>(B.Term.Cond);
      break;
    }

    for (const Inst &In : B.Insts)
      Ops.push_back(DecodedOp{In.Op, In.Rd, In.Ra, In.Rb, In.Imm});
    Terms.push_back(T);
  }
  First.push_back(static_cast<uint32_t>(Ops.size()));

  classifySelfLoops();
}

void Interpreter::classifySelfLoops() {
  const size_t N = P.numBlocks();
  SelfLoops.assign(N, SelfLoop{});
  for (size_t Id = 0; Id < N; ++Id) {
    const DecodedTerm &T = Terms[Id];
    SelfLoop SL;
    if (T.Code == TermCode::Halt)
      continue;
    if (T.Code == TermCode::Jump) {
      if (T.Taken != Id)
        continue;
      SL.StayBranch = 0;
    } else {
      const bool TakenSelf = T.Taken == Id;
      const bool FallSelf = T.Fall == Id;
      // Not a self-loop — or a degenerate latch whose two edges both
      // loop, which has no fixed staying branch outcome. Leave those to
      // the plain dispatch.
      if (TakenSelf == FallSelf)
        continue;
      SL.StayBranch = TakenSelf ? 2 : 1;
    }
    SL.IsLoop = true;
    SL.FullInsts = First[Id + 1] - First[Id] + 1;
    SelfLoops[Id] = SL;
  }
}
