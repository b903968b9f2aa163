//===- tests/jit/JitLoweringTest.cpp - per-op jit vs executeOps ------------===//
//
// Differential tests of the x86-64 lowering: every guest opcode is
// compiled as a one-segment chain and executed against the same initial
// state as Interpreter::executeOps. Registers, memory, fault index, and
// the packed exit info must agree bit for bit — including the
// guest-defined corner cases (division by zero, INT64_MIN / -1, shift
// counts past 63, NaN comparisons, non-finite FToI). Seeded random op
// soups, chains (Branch and Jump guards), and self-loops are
// checked the same way against an interpreter-built reference, and
// compiling the same input twice must give the same bytes.
//
//===----------------------------------------------------------------------===//

#include "guest/Isa.h"
#include "jit/ChainCompiler.h"
#include "jit/CodeBuffer.h"
#include "support/Rng.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

using namespace tpdbt;
using guest::Opcode;
using vm::Interpreter;

namespace {

using Op = Interpreter::DecodedOp;
using Term = Interpreter::DecodedTerm;

struct MachineState {
  std::array<int64_t, guest::NumRegs> Regs{};
  std::vector<int64_t> Mem;
};

Op op(Opcode O, uint8_t Rd, uint8_t Ra, uint8_t Rb, int64_t Imm = 0) {
  return Op{O, Rd, Ra, Rb, Imm};
}

/// Compiles \p Ops as a single Jump-terminated segment and runs it.
jit::JitExit runJit(const std::vector<Op> &Ops, MachineState &S) {
  Term T{};
  T.Code = Interpreter::TermCode::Jump;
  T.Taken = 1;
  T.Fall = 1;
  jit::JitSegment Seg{Ops.data(), Ops.data() + Ops.size(), T, false};
  const std::vector<uint8_t> Code = jit::compileChain(&Seg, 1);
  jit::CodeBuffer CB(1 << 16);
  const void *Entry = CB.install(Code.data(), Code.size());
  EXPECT_NE(Entry, nullptr);
  const jit::JitFn Fn = reinterpret_cast<jit::JitFn>(
      const_cast<void *>(Entry));
  return Fn(S.Regs.data(), S.Mem.data(), S.Mem.size(), 1);
}

/// Runs \p Ops both ways from \p Init and requires identical end state.
void expectSame(const std::vector<Op> &Ops, const MachineState &Init) {
  MachineState Ref = Init;
  const intptr_t Fault =
      Interpreter::executeOps(Ops.data(), Ops.data() + Ops.size(),
                              Ref.Regs.data(), Ref.Mem.data(), Ref.Mem.size());

  MachineState Jit = Init;
  const jit::JitExit R = runJit(Ops, Jit);

  if (Fault >= 0) {
    ASSERT_EQ(jit::exitKind(R.Info), jit::ExitKind::Fault);
    EXPECT_EQ(jit::exitFaultOp(R.Info), static_cast<uint32_t>(Fault));
    EXPECT_EQ(R.Done, 0u);
  } else {
    ASSERT_EQ(jit::exitKind(R.Info), jit::ExitKind::Ok);
    EXPECT_EQ(R.Done, 1u);
  }
  EXPECT_EQ(Ref.Regs, Jit.Regs);
  EXPECT_EQ(Ref.Mem, Jit.Mem);
}

MachineState stateAB(int64_t A, int64_t B, size_t MemWords = 4) {
  MachineState S;
  S.Mem.assign(MemWords, 0);
  S.Regs[1] = A;
  S.Regs[2] = B;
  for (unsigned G = 3; G < guest::NumRegs; ++G)
    S.Regs[G] = static_cast<int64_t>(G) * 0x0101010101010101LL;
  return S;
}

const int64_t IntVals[] = {
    0,          1,           -1,         2,
    -2,         7,           63,         64,
    65,         -63,         100,        INT64_MAX,
    INT64_MIN,  INT64_MIN + 1,           0x7fffffffLL,
    -0x80000000LL,           0x100000000LL,
    -0x100000001LL,          0x123456789abcdefLL,
};

int64_t bits(double D) { return std::bit_cast<int64_t>(D); }

const int64_t FpVals[] = {
    bits(0.0),    bits(-0.0),     bits(1.5),    bits(-2.25),
    bits(0.5),    bits(-123.75),  bits(1e300),  bits(-1e300),
    bits(5e-324), // smallest denormal
    std::bit_cast<int64_t>(UINT64_C(0x7ff0000000000000)),  // +inf
    std::bit_cast<int64_t>(UINT64_C(0xfff0000000000000)),  // -inf
    std::bit_cast<int64_t>(UINT64_C(0x7ff8000000000001)),  // qnan
};

class JitLoweringTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!jit::CodeBuffer::supported())
      GTEST_SKIP() << "no executable mappings on this host";
  }
};

TEST_F(JitLoweringTest, RegRegAluAcrossValuesAndAliasing) {
  const Opcode Ops[] = {Opcode::Add,  Opcode::Sub,  Opcode::Mul,
                        Opcode::Divs, Opcode::Rems, Opcode::And,
                        Opcode::Or,   Opcode::Xor,  Opcode::Shl,
                        Opcode::Shr,  Opcode::Sar,  Opcode::CmpEq,
                        Opcode::CmpLt, Opcode::CmpLtU};
  // (Rd, Ra, Rb) including every aliasing shape.
  const uint8_t Shapes[][3] = {{3, 1, 2}, {1, 1, 2}, {2, 1, 2}, {1, 1, 1}};
  for (Opcode O : Ops)
    for (int64_t A : IntVals)
      for (int64_t B : IntVals)
        for (const auto &Sh : Shapes)
          expectSame({op(O, Sh[0], Sh[1], Sh[2])}, stateAB(A, B));
}

TEST_F(JitLoweringTest, ImmediateForms) {
  const Opcode Ops[] = {Opcode::AddI,   Opcode::MulI,  Opcode::AndI,
                        Opcode::OrI,    Opcode::XorI,  Opcode::ShlI,
                        Opcode::ShrI,   Opcode::CmpEqI, Opcode::CmpLtI,
                        Opcode::CmpLtUI, Opcode::MovI};
  for (Opcode O : Ops)
    for (int64_t A : IntVals)
      for (int64_t Imm : IntVals) {
        expectSame({op(O, 3, 1, 0, Imm)}, stateAB(A, 0));
        expectSame({op(O, 1, 1, 0, Imm)}, stateAB(A, 0)); // Rd aliases Ra
      }
}

TEST_F(JitLoweringTest, MovAndNop) {
  for (int64_t A : IntVals) {
    expectSame({op(Opcode::Mov, 3, 1, 0)}, stateAB(A, 0));
    expectSame({op(Opcode::Nop, 0, 0, 0)}, stateAB(A, 0));
  }
}

TEST_F(JitLoweringTest, LoadStoreBoundsAndFaults) {
  const int64_t Bases[] = {0, 1, 3, 7, 8, 9, -1, -8, INT64_MAX, INT64_MIN};
  const int64_t Offs[] = {0, 1, -1, 7, 8, -9, INT64_MAX, INT64_MIN};
  for (int64_t Base : Bases)
    for (int64_t Off : Offs) {
      MachineState S = stateAB(Base, 0x5ca1ab1eLL, /*MemWords=*/8);
      for (size_t W = 0; W < S.Mem.size(); ++W)
        S.Mem[W] = static_cast<int64_t>(W) * 3 + 1;
      expectSame({op(Opcode::Load, 3, 1, 0, Off)}, S);
      expectSame({op(Opcode::Store, 0, 1, 2, Off)}, S);
      // Fault after visible effects: the store's fault must leave the
      // earlier op's register write in place.
      expectSame({op(Opcode::AddI, 4, 1, 0, 17),
                  op(Opcode::Store, 0, 1, 2, Off),
                  op(Opcode::AddI, 5, 1, 0, 23)},
                 S);
    }
}

TEST_F(JitLoweringTest, FloatingPointBitExact) {
  const Opcode Ops[] = {Opcode::FAdd, Opcode::FSub, Opcode::FMul,
                        Opcode::FDiv, Opcode::FCmpLt};
  for (Opcode O : Ops)
    for (int64_t A : FpVals)
      for (int64_t B : FpVals)
        expectSame({op(O, 3, 1, 2)}, stateAB(A, B));
  for (int64_t A : FpVals) {
    expectSame({op(Opcode::FConst, 3, 0, 0, A)}, stateAB(0, 0));
  }
}

TEST_F(JitLoweringTest, Conversions) {
  for (int64_t A : IntVals)
    expectSame({op(Opcode::IToF, 3, 1, 0)}, stateAB(A, 0));
  // FToI: in-range finite values plus every non-finite class. Finite
  // values outside int64 range are excluded — converting those is
  // undefined in the reference interpreter's C++ cast.
  const int64_t FToIVals[] = {
      bits(0.0),     bits(-0.0),  bits(1.5),   bits(-1.5),
      bits(2.5e9),   bits(-2.5e9), bits(9.2e18), bits(-9.2e18),
      bits(5e-324),
      std::bit_cast<int64_t>(UINT64_C(0x7ff0000000000000)),
      std::bit_cast<int64_t>(UINT64_C(0xfff0000000000000)),
      std::bit_cast<int64_t>(UINT64_C(0x7ff8000000000001)),
  };
  for (int64_t A : FToIVals)
    expectSame({op(Opcode::FToI, 3, 1, 0)}, stateAB(A, 0));
}

TEST_F(JitLoweringTest, SpilledRegistersBeyondHostPool) {
  // Touch 12 distinct guest registers so at most 6 get host registers and
  // the rest run through the in-place Regs-array path.
  std::vector<Op> Ops;
  for (uint8_t G = 10; G < 22; ++G)
    Ops.push_back(op(Opcode::AddI, G, G, 0, G * 7));
  for (uint8_t G = 10; G < 21; ++G)
    Ops.push_back(op(Opcode::Add, G, G, static_cast<uint8_t>(G + 1)));
  // Bias use counts so a known subset is hot.
  for (int K = 0; K < 4; ++K)
    Ops.push_back(op(Opcode::Xor, 10, 10, 11));
  MachineState S = stateAB(5, -9);
  for (unsigned G = 0; G < guest::NumRegs; ++G)
    S.Regs[G] = static_cast<int64_t>(G * G) - 31;
  expectSame(Ops, S);
}

TEST_F(JitLoweringTest, LongMixedProgram) {
  std::vector<Op> Ops = {
      op(Opcode::MovI, 4, 0, 0, 1000),
      op(Opcode::AddI, 5, 4, 0, -250),
      op(Opcode::Mul, 6, 4, 5),
      op(Opcode::Divs, 7, 6, 5),
      op(Opcode::Rems, 8, 6, 4),
      op(Opcode::Shl, 9, 4, 5),
      op(Opcode::CmpLtU, 10, 5, 4),
      op(Opcode::Store, 0, 10, 6, 1),
      op(Opcode::Load, 11, 10, 0, 1),
      op(Opcode::IToF, 12, 11, 0),
      op(Opcode::FConst, 13, 0, 0, bits(3.5)),
      op(Opcode::FMul, 14, 12, 13),
      op(Opcode::FToI, 15, 14, 0),
      op(Opcode::Xor, 16, 15, 11),
  };
  expectSame(Ops, stateAB(3, -7, /*MemWords=*/16));
}

// --- Chain guards and the deopt exit protocol ---------------------------

Term branchTerm(guest::CondKind CK, uint8_t Ra, uint8_t Rb, int64_t Imm,
                guest::BlockId Taken, guest::BlockId Fall) {
  Term T{};
  T.Code = Interpreter::TermCode::Branch;
  T.Cond = static_cast<uint8_t>(CK);
  T.Ra = Ra;
  T.Rb = Rb;
  T.Imm = Imm;
  T.Taken = Taken;
  T.Fall = Fall;
  return T;
}

struct ChainRun {
  jit::JitExit R;
  MachineState S;
};

ChainRun runChain(const std::vector<std::vector<Op>> &Bodies,
                  const std::vector<Term> &Terms,
                  const std::vector<bool> &ExpectTaken, MachineState S,
                  uint64_t Budget) {
  std::vector<jit::JitSegment> Segs(Bodies.size());
  for (size_t I = 0; I < Bodies.size(); ++I) {
    Segs[I].Begin = Bodies[I].data();
    Segs[I].End = Bodies[I].data() + Bodies[I].size();
    Segs[I].Term = Terms[I];
    Segs[I].ExpectTaken = ExpectTaken[I];
  }
  const std::vector<uint8_t> Code = jit::compileChain(Segs.data(), Segs.size());
  EXPECT_EQ(Code, jit::compileChain(Segs.data(), Segs.size()))
      << "chain compilation is not deterministic";
  jit::CodeBuffer CB(1 << 16);
  const jit::JitFn Fn = reinterpret_cast<jit::JitFn>(
      const_cast<void *>(CB.install(Code.data(), Code.size())));
  const jit::JitExit R = Fn(S.Regs.data(), S.Mem.data(), S.Mem.size(), Budget);
  return ChainRun{R, std::move(S)};
}

TEST_F(JitLoweringTest, ChainGuardHoldsAndDeviates) {
  // Segment 0: r1 += 1 then branch taken iff r1 < r2, chain expects taken.
  // Segment 1: r3 = r1 * 2, jump.
  const std::vector<std::vector<Op>> Bodies = {
      {op(Opcode::AddI, 1, 1, 0, 1)}, {op(Opcode::MulI, 3, 1, 0, 2)}};
  const std::vector<Term> Terms = {
      branchTerm(guest::CondKind::Lt, 1, 2, 0, 7, 9),
      branchTerm(guest::CondKind::GeI, 3, 0, 0, 11, 13)};
  const std::vector<bool> Expect = {true, false};

  {
    // Guard holds on segment 0; segment 1 guard (expect fall, r3 >= 0
    // would be taken) deviates with the actual direction reported.
    MachineState S = stateAB(5, 100);
    ChainRun C = runChain(Bodies, Terms, Expect, S, 2);
    EXPECT_EQ(jit::exitKind(C.R.Info), jit::ExitKind::OffChain);
    EXPECT_EQ(C.R.Done, 1u);
    EXPECT_TRUE(jit::exitTaken(C.R.Info));
    EXPECT_EQ(C.S.Regs[1], 6);
    EXPECT_EQ(C.S.Regs[3], 12);
  }
  {
    // Guard deviates immediately: r1+1 >= r2 so the branch falls through.
    MachineState S = stateAB(99, 100);
    S.Regs[1] = 100;
    ChainRun C = runChain(Bodies, Terms, Expect, S, 2);
    EXPECT_EQ(jit::exitKind(C.R.Info), jit::ExitKind::OffChain);
    EXPECT_EQ(C.R.Done, 0u);
    EXPECT_FALSE(jit::exitTaken(C.R.Info));
    EXPECT_EQ(C.S.Regs[1], 101); // body executed before the guard fired
  }
  {
    // Budget 1: segment 0 matches, then the chain stops cleanly.
    MachineState S = stateAB(5, 100);
    ChainRun C = runChain(Bodies, Terms, Expect, S, 1);
    EXPECT_EQ(jit::exitKind(C.R.Info), jit::ExitKind::Ok);
    EXPECT_EQ(C.R.Done, 1u);
    EXPECT_EQ(C.S.Regs[1], 6);
    EXPECT_EQ(C.S.Regs[3], 3 * 0x0101010101010101LL); // untouched
  }
}

TEST_F(JitLoweringTest, MidChainFaultReportsSegmentLocalOpIndex) {
  const std::vector<std::vector<Op>> Bodies = {
      {op(Opcode::AddI, 1, 1, 0, 1)},
      {op(Opcode::MovI, 5, 0, 0, 1), op(Opcode::Load, 6, 2, 0, 1000)}};
  const std::vector<Term> Terms = {
      branchTerm(guest::CondKind::LtI, 1, 0, 0, 7, 9),
      branchTerm(guest::CondKind::EqI, 5, 0, 0, 11, 13)};
  const std::vector<bool> Expect = {true, false};
  MachineState S = stateAB(0, 0, /*MemWords=*/4);
  S.Regs[1] = -5; // branch taken: -4 < 0
  ChainRun C = runChain(Bodies, Terms, Expect, S, 2);
  EXPECT_EQ(jit::exitKind(C.R.Info), jit::ExitKind::Fault);
  EXPECT_EQ(C.R.Done, 1u);
  EXPECT_EQ(jit::exitFaultOp(C.R.Info), 1u); // second op of segment 1
  EXPECT_EQ(C.S.Regs[5], 1); // op before the fault landed
}

// --- Self-loop compilation ----------------------------------------------

/// Reference for compiled self-loops: the plain pump stepping one
/// self-loop block, expressed over the public decoded-op API.
struct LoopRef {
  uint64_t Stays = 0;
  bool ExitValid = false;
  bool ExitTaken = false;
  intptr_t FaultIdx = -1;
};

LoopRef runLoopRef(const std::vector<Op> &Body, const Term &T,
                   uint8_t StayBranch, MachineState &S, uint64_t MaxIters) {
  LoopRef R;
  while (R.Stays < MaxIters) {
    const intptr_t F =
        Interpreter::executeOps(Body.data(), Body.data() + Body.size(),
                                S.Regs.data(), S.Mem.data(), S.Mem.size());
    if (F >= 0) {
      R.ExitValid = true;
      R.FaultIdx = F;
      return R;
    }
    if (T.Code == Interpreter::TermCode::Jump) {
      ++R.Stays;
      continue;
    }
    const bool Taken = Interpreter::evalBranch(T, S.Regs.data());
    const bool Stay = Taken == (StayBranch == 2);
    if (!Stay) {
      R.ExitValid = true;
      R.ExitTaken = Taken;
      return R;
    }
    ++R.Stays;
  }
  return R;
}

void expectLoopSame(const std::vector<Op> &Body, const Term &T,
                    uint8_t StayBranch, const MachineState &Init,
                    uint64_t MaxIters) {
  MachineState Ref = Init;
  const LoopRef RR = runLoopRef(Body, T, StayBranch, Ref, MaxIters);

  MachineState Jit = Init;
  const std::vector<uint8_t> Code = jit::compileSelfLoop(
      Body.data(), Body.data() + Body.size(), T, StayBranch);
  EXPECT_EQ(Code, jit::compileSelfLoop(Body.data(), Body.data() + Body.size(),
                                       T, StayBranch))
      << "self-loop compilation is not deterministic";
  jit::CodeBuffer CB(1 << 16);
  const jit::JitFn Fn = reinterpret_cast<jit::JitFn>(
      const_cast<void *>(CB.install(Code.data(), Code.size())));
  const jit::JitExit R =
      Fn(Jit.Regs.data(), Jit.Mem.data(), Jit.Mem.size(), MaxIters);

  EXPECT_EQ(R.Done, RR.Stays);
  if (!RR.ExitValid) {
    EXPECT_EQ(jit::exitKind(R.Info), jit::ExitKind::Ok);
  } else if (RR.FaultIdx >= 0) {
    ASSERT_EQ(jit::exitKind(R.Info), jit::ExitKind::Fault);
    EXPECT_EQ(jit::exitFaultOp(R.Info), static_cast<uint32_t>(RR.FaultIdx));
  } else {
    ASSERT_EQ(jit::exitKind(R.Info), jit::ExitKind::OffChain);
    EXPECT_EQ(jit::exitTaken(R.Info), RR.ExitTaken);
  }
  EXPECT_EQ(Ref.Regs, Jit.Regs);
  EXPECT_EQ(Ref.Mem, Jit.Mem);
}

TEST_F(JitLoweringTest, SelfLoopCountedLatch) {
  // for (r1 = 0; r1 < r2; r1 += 3) r4 ^= r1 — plain Branch latch staying
  // on the taken edge.
  const std::vector<Op> Body = {op(Opcode::Xor, 4, 4, 1),
                                op(Opcode::AddI, 1, 1, 0, 3)};
  const Term T = branchTerm(guest::CondKind::Lt, 1, 2, 0, 5, 6);
  for (uint64_t Budget : {0ull, 1ull, 5ull, 33ull, 1000ull}) {
    MachineState S = stateAB(0, 100);
    expectLoopSame(Body, T, /*StayBranch=*/2, S, Budget);
  }
}

TEST_F(JitLoweringTest, SelfLoopJumpToSelfExhaustsBudget) {
  const std::vector<Op> Body = {op(Opcode::AddI, 1, 1, 0, 1)};
  Term T{};
  T.Code = Interpreter::TermCode::Jump;
  T.Taken = 2;
  T.Fall = 2;
  for (uint64_t Budget : {0ull, 1ull, 17ull}) {
    MachineState S = stateAB(0, 0);
    expectLoopSame(Body, T, /*StayBranch=*/0, S, Budget);
  }
}

TEST_F(JitLoweringTest, SelfLoopMemFaultMidIteration) {
  // The loop walks r1 upward as a store index until it runs off the end
  // of memory; the faulting iteration's partial effects must be visible.
  const std::vector<Op> Body = {op(Opcode::AddI, 4, 4, 0, 11),
                                op(Opcode::Store, 0, 1, 4, 0),
                                op(Opcode::AddI, 1, 1, 0, 1)};
  const Term T = branchTerm(guest::CondKind::LtI, 1, 0, 1000, 3, 9);
  MachineState S = stateAB(0, 0, /*MemWords=*/6);
  expectLoopSame(Body, T, /*StayBranch=*/2, S, 500);
}

// --- Randomized differentials against the interpreter ---------------------

/// Random op soup over a small register window: every opcode the decoder
/// can produce, immediates that stress both encodings, memory indices
/// that hit and overrun the 8-word array so faults occur mid-body.
std::vector<Op> randomBody(Rng &R, size_t N) {
  static const Opcode Pool[] = {
      Opcode::Add,    Opcode::Sub,    Opcode::Mul,    Opcode::Divs,
      Opcode::Rems,   Opcode::And,    Opcode::Or,     Opcode::Xor,
      Opcode::Shl,    Opcode::Shr,    Opcode::Sar,    Opcode::AddI,
      Opcode::MulI,   Opcode::AndI,   Opcode::OrI,    Opcode::XorI,
      Opcode::ShlI,   Opcode::ShrI,   Opcode::CmpEq,  Opcode::CmpLt,
      Opcode::CmpLtU, Opcode::CmpEqI, Opcode::CmpLtI, Opcode::CmpLtUI,
      Opcode::MovI,   Opcode::Mov,    Opcode::Load,   Opcode::Store,
      Opcode::FAdd,   Opcode::FSub,   Opcode::FMul,   Opcode::FDiv,
      Opcode::FConst, Opcode::FCmpLt, Opcode::IToF,   Opcode::FToI,
      Opcode::Nop,
  };
  static const int64_t Imms[] = {0, 1, -1, 3, 7, 63, -64, 0x7fffffffLL,
                                 -0x80000000LL, 0x1234567890LL};
  std::vector<Op> Body;
  for (size_t I = 0; I < N; ++I) {
    const Opcode O = Pool[R.nextBelow(std::size(Pool))];
    const uint8_t Rd = static_cast<uint8_t>(R.nextBelow(12));
    const uint8_t Ra = static_cast<uint8_t>(R.nextBelow(12));
    const uint8_t Rb = static_cast<uint8_t>(R.nextBelow(12));
    int64_t Imm = Imms[R.nextBelow(std::size(Imms))];
    if (O == Opcode::Load || O == Opcode::Store)
      Imm = static_cast<int64_t>(R.nextBelow(12)) - 2; // in range and out
    Body.push_back(op(O, Rd, Ra, Rb, Imm));
  }
  return Body;
}

MachineState randomState(Rng &R) {
  MachineState S;
  S.Mem.assign(8, 0);
  for (auto &W : S.Mem)
    W = static_cast<int64_t>(R.next());
  for (unsigned G = 0; G < guest::NumRegs; ++G)
    S.Regs[G] = static_cast<int64_t>(R.nextBelow(32)) - 4; // small indices
  return S;
}

/// A random chain guard: a Branch on any condition kind, or now and then
/// a Jump.
Term randomGuard(Rng &R) {
  static const guest::CondKind Kinds[] = {
      guest::CondKind::Eq,  guest::CondKind::Ne,  guest::CondKind::Lt,
      guest::CondKind::Ge,  guest::CondKind::LtU, guest::CondKind::GeU,
      guest::CondKind::EqI, guest::CondKind::NeI, guest::CondKind::LtI,
      guest::CondKind::GeI};
  const uint8_t Ra = static_cast<uint8_t>(R.nextBelow(12));
  const uint8_t Rb = static_cast<uint8_t>(R.nextBelow(12));
  const int64_t Imm = static_cast<int64_t>(R.nextBelow(16)) - 8;
  if (R.nextBelow(5) == 0) {
    Term T{};
    T.Code = Interpreter::TermCode::Jump;
    T.Taken = T.Fall = 1;
    return T;
  }
  return branchTerm(Kinds[R.nextBelow(std::size(Kinds))], Ra, Rb, Imm, 7, 9);
}

/// Reference for compiled chains: before each later segment the budget
/// check, then the body through executeOps, then the guard through
/// evalBranch compared with the segment's ExpectTaken. The
/// returned record is packed exactly as the compiled unit packs it.
jit::JitExit runChainRef(const std::vector<std::vector<Op>> &Bodies,
                         const std::vector<Term> &Terms,
                         const std::vector<bool> &ExpectTaken,
                         MachineState &S, uint64_t Budget) {
  for (uint64_t K = 0; K < Bodies.size(); ++K) {
    if (K && Budget <= K)
      return {K, static_cast<uint64_t>(jit::ExitKind::Ok)};
    const std::vector<Op> &B = Bodies[K];
    const intptr_t F = Interpreter::executeOps(
        B.data(), B.data() + B.size(), S.Regs.data(), S.Mem.data(),
        S.Mem.size());
    if (F >= 0)
      return {K, static_cast<uint64_t>(jit::ExitKind::Fault) |
                     (static_cast<uint64_t>(F) << 32)};
    if (Terms[K].Code == Interpreter::TermCode::Jump)
      continue;
    const bool Taken = Interpreter::evalBranch(Terms[K], S.Regs.data());
    if (Taken != ExpectTaken[K])
      return {K, static_cast<uint64_t>(jit::ExitKind::OffChain) |
                     (Taken ? 4u : 0u)};
  }
  return {Bodies.size(), static_cast<uint64_t>(jit::ExitKind::Ok)};
}

TEST_F(JitLoweringTest, RandomBodiesMatchInterpreter) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed * 0x9e3779b9u);
    const std::vector<Op> Body = randomBody(R, 1 + R.nextBelow(24));
    expectSame(Body, randomState(R));
  }
}

TEST_F(JitLoweringTest, RandomChainsMatchInterpreter) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed * 0x51ed2701u);
    const size_t NSegs = 2 + R.nextBelow(3);
    std::vector<std::vector<Op>> Bodies;
    std::vector<Term> Terms;
    std::vector<bool> Expect;
    for (size_t K = 0; K < NSegs; ++K) {
      Bodies.push_back(randomBody(R, 2 + R.nextBelow(10)));
      Terms.push_back(randomGuard(R));
      Expect.push_back(R.nextBelow(2) != 0);
    }
    const MachineState Init = randomState(R);
    const uint64_t Budget = 1 + R.nextBelow(NSegs + 1);

    MachineState Ref = Init;
    const jit::JitExit RR = runChainRef(Bodies, Terms, Expect, Ref, Budget);
    const ChainRun C = runChain(Bodies, Terms, Expect, Init, Budget);
    EXPECT_EQ(C.R.Done, RR.Done);
    EXPECT_EQ(C.R.Info, RR.Info);
    EXPECT_EQ(C.S.Regs, Ref.Regs);
    EXPECT_EQ(C.S.Mem, Ref.Mem);
  }
}

TEST_F(JitLoweringTest, RandomSelfLoopsMatchInterpreter) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed * 0xc2b2ae35u);
    // A counter-driven latch so most loops actually spin: r0 += 1 each
    // iteration, stay while r0 < bound; the rest of the body is soup.
    std::vector<Op> Body = randomBody(R, 1 + R.nextBelow(10));
    Body.push_back(op(Opcode::AddI, 0, 0, 0, 1));
    const int64_t Bound = static_cast<int64_t>(R.nextBelow(40));
    Term T{};
    uint8_t StayBranch = 0;
    switch (R.nextBelow(3)) {
    case 0: // jump-to-self: only the budget or a fault ends it
      T.Code = Interpreter::TermCode::Jump;
      T.Taken = T.Fall = 1;
      break;
    case 1: // stay on the taken edge
      T = branchTerm(guest::CondKind::LtI, 0, 0, Bound, 1, 2);
      StayBranch = 2;
      break;
    default: // stay on the not-taken edge
      T = branchTerm(guest::CondKind::GeI, 0, 0, Bound, 1, 2);
      StayBranch = 1;
      break;
    }
    MachineState Init = randomState(R);
    Init.Regs[0] = 0;
    expectLoopSame(Body, T, StayBranch, Init, R.nextBelow(64));
  }
}

TEST_F(JitLoweringTest, CodeBufferFlushAndExhaustion) {
  const std::vector<Op> Ops = {op(Opcode::AddI, 1, 1, 0, 1)};
  Term T{};
  T.Code = Interpreter::TermCode::Jump;
  T.Taken = 1;
  jit::JitSegment Seg{Ops.data(), Ops.data() + Ops.size(), T, false};
  const std::vector<uint8_t> Code = jit::compileChain(&Seg, 1);

  jit::CodeBuffer CB(4096);
  std::vector<const void *> Entries;
  const void *P;
  while ((P = CB.install(Code.data(), Code.size())) != nullptr)
    Entries.push_back(P);
  EXPECT_GT(Entries.size(), 1u);
  EXPECT_LE(CB.used(), CB.capacity());
  // Full: flush resets and installs land at the start again.
  CB.flush();
  const void *Again = CB.install(Code.data(), Code.size());
  ASSERT_NE(Again, nullptr);
  EXPECT_EQ(Again, Entries.front());
  // The reinstalled code still runs.
  MachineState S = stateAB(41, 0);
  const jit::JitFn Fn =
      reinterpret_cast<jit::JitFn>(const_cast<void *>(Again));
  Fn(S.Regs.data(), S.Mem.data(), S.Mem.size(), 1);
  EXPECT_EQ(S.Regs[1], 42);
}

} // namespace
