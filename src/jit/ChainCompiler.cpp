//===- jit/ChainCompiler.cpp - Superblock -> x86-64 compiler ---------------===//
//
// Lowering reference: vm/Interpreter.h executeOps()/evalBranch(). Every
// case here must produce bit-identical register, memory, and fault
// behavior; tests/jit/JitLoweringTest.cpp checks each opcode plus
// randomized bodies, chains, and self-loops differentially against
// executeOps/evalBranch.
//
// Ops are lowered in program order. The layout follows the prediction:
//
//  * fall-through — the predicted successor of every chain guard is the
//    fall-through; the unpredicted edge jumps to an exit stub.
//  * cold-tail stubs — every exit stub lives after the flush epilogue,
//    out of the hot straight-line code; identical stubs are emitted once.
//  * fall-through latch — a compiled self-loop's staying (predicted)
//    direction is the single backward conditional branch; leaving falls
//    through into the exit sequence. One branch per iteration.
//  * direct-destination lowering — ops whose destination lives in a
//    callee-saved host register compute into it directly instead of
//    round-tripping through RAX.
//
//===----------------------------------------------------------------------===//

#include "jit/ChainCompiler.h"

#include "guest/Isa.h"
#include "jit/Emitter.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <climits>
#include <cstdint>

using namespace tpdbt;
using namespace tpdbt::jit;
using vm::Interpreter;
using guest::CondKind;
using guest::Opcode;

namespace {

// Fixed role assignment for the whole unit (see ChainCompiler.h).
constexpr HostReg RegsBase = R10;
constexpr HostReg MemBase = R8;
constexpr HostReg MemLimit = R9;
constexpr HostReg Budget = R11;
constexpr HostReg Iter = RSI;

/// Callee-saved registers available to hold guest registers.
constexpr HostReg Pool[6] = {RBX, RBP, R12, R13, R14, R15};

class Compiler {
public:
  Compiler() { HostOf.fill(-1); }

  std::vector<uint8_t> chain(const JitSegment *Segs, size_t N) {
    for (size_t I = 0; I < N; ++I) {
      countOps(Segs[I].Begin, Segs[I].End);
      countTerm(Segs[I].Term);
    }
    allocate();
    prologue(/*IsLoop=*/false);
    for (size_t I = 0; I < N; ++I) {
      // The caller guarantees budget >= 1; later segments check before
      // executing so a mid-chain block-limit stop leaves state exactly
      // where the plain pump would.
      if (I) {
        E.aluImm(Alu::Cmp, Budget, static_cast<int32_t>(I));
        E.jcc(Cond::Be, stub(I, /*FromIter=*/false, okInfo()));
      }
      emitBody(Segs[I].Begin, Segs[I].End, I, /*FromIter=*/false);
      emitChainGuard(Segs[I], I);
    }
    E.movImm(RAX, static_cast<int64_t>(N)); // full match
    E.movImm(RDX, 0);
    return finishUnit();
  }

  std::vector<uint8_t> selfLoop(const Interpreter::DecodedOp *Begin,
                                const Interpreter::DecodedOp *End,
                                const Interpreter::DecodedTerm &T,
                                uint8_t StayBranch) {
    countOps(Begin, End);
    countTerm(T);
    allocate();
    prologue(/*IsLoop=*/true);
    const Emitter::Label Top = E.newLabel();
    E.bind(Top);
    // An iteration only starts while the budget allows it; reaching the
    // budget is a clean Ok return (the tier reports BlockLimit), exactly
    // like Interpreter::runSelfLoop's while (Stays < MaxIters).
    E.alu(Alu::Cmp, Iter, Budget);
    E.jcc(Cond::Ae, stub(0, /*FromIter=*/true, okInfo()));
    emitBody(Begin, End, 0, /*FromIter=*/true);
    if (T.Code == Interpreter::TermCode::Jump) {
      // Jump-to-self: every executed iteration stays.
      E.inc(Iter);
      E.jmp(Top);
    } else {
      // Prediction-directed latch: staying is the predicted direction, so
      // it gets the single (backward, taken-while-spinning) conditional
      // branch; leaving falls through into the cold exit sequence. The
      // iteration counter is bumped with lea between the condition
      // evaluation and the jcc because lea leaves the flags alone.
      const Cond Taken = emitTakenCond(T);
      E.lea(Iter, Iter, 1);
      E.jcc(StayBranch == 2 ? Taken : negate(Taken), Top);
      // The deviating (exiting) execution is not a stay: undo the bump.
      E.lea(RAX, Iter, -1);
      E.movImm(RDX, static_cast<int64_t>(offInfo(StayBranch != 2)));
      E.jmp(FlushL);
    }
    return finishUnit();
  }

private:
  struct Stub {
    Emitter::Label L;
    uint64_t Done;
    bool FromIter;
    uint64_t Info;
  };

  static constexpr uint64_t okInfo() {
    return static_cast<uint64_t>(ExitKind::Ok);
  }
  static constexpr uint64_t offInfo(bool Taken) {
    return static_cast<uint64_t>(ExitKind::OffChain) | (Taken ? 4u : 0u);
  }
  static constexpr uint64_t faultInfo(uint64_t OpIdx) {
    return static_cast<uint64_t>(ExitKind::Fault) | (OpIdx << 32);
  }

  static int32_t slot(uint8_t G) { return 8 * static_cast<int32_t>(G); }

  // --- Use counting and register allocation -----------------------------

  void countOps(const Interpreter::DecodedOp *Begin,
                const Interpreter::DecodedOp *End) {
    for (const Interpreter::DecodedOp *Op = Begin; Op != End; ++Op) {
      if (guest::opcodeReadsRa(Op->Op))
        ++Uses[Op->Ra];
      if (guest::opcodeReadsRb(Op->Op))
        ++Uses[Op->Rb];
      if (guest::opcodeWritesRd(Op->Op))
        ++Uses[Op->Rd];
    }
  }

  void countTerm(const Interpreter::DecodedTerm &T) {
    switch (T.Code) {
    case Interpreter::TermCode::Jump:
    case Interpreter::TermCode::Halt:
      return;
    case Interpreter::TermCode::Branch:
      ++Uses[T.Ra];
      if (!guest::condUsesImm(static_cast<CondKind>(T.Cond)))
        ++Uses[T.Rb];
      return;
    }
  }

  /// Maps the most-used guest registers onto the callee-saved pool; the
  /// rest stay in the Regs array (which doubles as the spill area, so
  /// "spilling" is simply not remapping).
  void allocate() {
    std::array<uint8_t, guest::NumRegs> ByUse;
    uint8_t N = 0;
    for (uint8_t G = 0; G < guest::NumRegs; ++G)
      if (Uses[G])
        ByUse[N++] = G;
    std::stable_sort(ByUse.begin(), ByUse.begin() + N,
                     [&](uint8_t A, uint8_t B) { return Uses[A] > Uses[B]; });
    const uint8_t K = std::min<uint8_t>(N, 6);
    for (uint8_t I = 0; I < K; ++I) {
      HostOf[ByUse[I]] = Pool[I];
      Allocated.push_back({Pool[I], ByUse[I]});
    }
  }

  // --- Guest register access (host reg or in-place Regs slot) -----------

  void loadG(HostReg D, uint8_t G) {
    if (HostOf[G] >= 0)
      E.movRR(D, static_cast<HostReg>(HostOf[G]));
    else
      E.load(D, RegsBase, slot(G));
  }

  void storeG(uint8_t G, HostReg S) {
    if (HostOf[G] >= 0)
      E.movRR(static_cast<HostReg>(HostOf[G]), S);
    else
      E.store(RegsBase, slot(G), S);
  }

  void aluG(Alu A, HostReg D, uint8_t G) {
    if (HostOf[G] >= 0)
      E.alu(A, D, static_cast<HostReg>(HostOf[G]));
    else
      E.aluMem(A, D, RegsBase, slot(G));
  }

  void imulG(HostReg D, uint8_t G) {
    if (HostOf[G] >= 0)
      E.imul(D, static_cast<HostReg>(HostOf[G]));
    else
      E.imulMem(D, RegsBase, slot(G));
  }

  void aluImm64(Alu A, HostReg D, int64_t V) {
    if (Emitter::fitsI32(V)) {
      E.aluImm(A, D, static_cast<int32_t>(V));
    } else {
      E.movImm(RDI, V);
      E.alu(A, D, RDI);
    }
  }

  // --- Structure: prologue, epilogue, exit stubs ------------------------

  void prologue(bool IsLoop) {
    FlushL = E.newLabel();
    for (const auto &A : Allocated)
      E.push(A.first);
    E.movRR(RegsBase, RDI);
    E.movRR(MemBase, RSI);
    E.movRR(MemLimit, RDX);
    E.movRR(Budget, RCX);
    for (const auto &A : Allocated)
      E.load(A.first, RegsBase, slot(A.second));
    if (IsLoop)
      E.zero(Iter);
  }

  /// Every exit funnels through the flush: host-allocated guest registers
  /// are written back to the Regs array — this *is* the deopt state
  /// materialization — then callee-saves are restored. rax/rdx already
  /// hold the packed JitExit.
  ///
  /// The stubs live after the flush epilogue, out of the hot straight-
  /// line code, each with its own `mov rax, done; mov rdx, info; jmp
  /// flush` tail.
  std::vector<uint8_t> finishUnit() {
    E.bind(FlushL);
    for (const auto &A : Allocated)
      E.store(RegsBase, slot(A.second), A.first);
    for (auto It = Allocated.rbegin(); It != Allocated.rend(); ++It)
      E.pop(It->first);
    E.ret();
    for (const Stub &S : Stubs) {
      E.bind(S.L);
      if (S.FromIter)
        E.movRR(RAX, Iter);
      else
        E.movImm(RAX, static_cast<int64_t>(S.Done));
      E.movImm(RDX, static_cast<int64_t>(S.Info));
      E.jmp(FlushL);
    }
    return E.finish();
  }

  Emitter::Label stub(uint64_t Done, bool FromIter, uint64_t Info) {
    for (const Stub &S : Stubs)
      if (S.FromIter == FromIter && S.Info == Info &&
          (FromIter || S.Done == Done))
        return S.L;
    Stubs.push_back(Stub{E.newLabel(), Done, FromIter, Info});
    return Stubs.back().L;
  }

  Emitter::Label faultStub(uint64_t Done, bool FromIter, uint64_t OpIdx) {
    return stub(Done, FromIter, faultInfo(OpIdx));
  }

  // --- Op lowering ------------------------------------------------------

  void emitBody(const Interpreter::DecodedOp *Begin,
                const Interpreter::DecodedOp *End, uint64_t Done,
                bool FromIter) {
    for (const Interpreter::DecodedOp *Op = Begin; Op != End; ++Op)
      lowerOp(*Op, Done, FromIter, static_cast<uint64_t>(Op - Begin));
  }

  void lowerOp(const Interpreter::DecodedOp &O, uint64_t Done, bool FromIter,
               uint64_t J) {
    switch (O.Op) {
    case Opcode::Add:
      binary(Alu::Add, O, /*Commutes=*/true);
      break;
    case Opcode::Sub:
      binary(Alu::Sub, O, /*Commutes=*/false);
      break;
    case Opcode::And:
      binary(Alu::And, O, /*Commutes=*/true);
      break;
    case Opcode::Or:
      binary(Alu::Or, O, /*Commutes=*/true);
      break;
    case Opcode::Xor:
      binary(Alu::Xor, O, /*Commutes=*/true);
      break;
    case Opcode::Mul: {
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        const HostReg H = static_cast<HostReg>(D);
        if (O.Rd == O.Ra) {
          imulG(H, O.Rb);
        } else if (O.Rd == O.Rb) { // imul commutes
          imulG(H, O.Ra);
        } else {
          loadG(H, O.Ra);
          imulG(H, O.Rb);
        }
        break;
      }
      loadG(RAX, O.Ra);
      imulG(RAX, O.Rb);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::Divs:
      divRem(O, /*Rem=*/false);
      break;
    case Opcode::Rems:
      divRem(O, /*Rem=*/true);
      break;
    case Opcode::Shl:
      shiftReg(Shift::Shl, O);
      break;
    case Opcode::Shr:
      shiftReg(Shift::Shr, O);
      break;
    case Opcode::Sar:
      shiftReg(Shift::Sar, O);
      break;
    case Opcode::AddI: {
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        const HostReg H = static_cast<HostReg>(D);
        if (O.Rd != O.Ra)
          loadG(H, O.Ra);
        if (O.Imm)
          aluImm64(Alu::Add, H, O.Imm);
        break;
      }
      loadG(RAX, O.Ra);
      if (O.Imm)
        aluImm64(Alu::Add, RAX, O.Imm);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::MulI: {
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        const HostReg H = static_cast<HostReg>(D);
        if (Emitter::fitsI32(O.Imm)) {
          if (HostOf[O.Ra] >= 0) {
            E.imulImm(H, static_cast<HostReg>(HostOf[O.Ra]),
                      static_cast<int32_t>(O.Imm));
          } else {
            loadG(H, O.Ra);
            E.imulImm(H, H, static_cast<int32_t>(O.Imm));
          }
        } else {
          E.movImm(RDI, O.Imm);
          if (O.Rd != O.Ra)
            loadG(H, O.Ra);
          E.imul(H, RDI);
        }
        break;
      }
      loadG(RAX, O.Ra);
      if (Emitter::fitsI32(O.Imm)) {
        E.imulImm(RAX, RAX, static_cast<int32_t>(O.Imm));
      } else {
        E.movImm(RDI, O.Imm);
        E.imul(RAX, RDI);
      }
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::AndI:
      binaryImm(Alu::And, O);
      break;
    case Opcode::OrI:
      binaryImm(Alu::Or, O);
      break;
    case Opcode::XorI:
      binaryImm(Alu::Xor, O);
      break;
    case Opcode::ShlI:
      shiftImm(Shift::Shl, O);
      break;
    case Opcode::ShrI:
      shiftImm(Shift::Shr, O);
      break;
    case Opcode::CmpEq:
      cmpRR(Cond::E, O);
      break;
    case Opcode::CmpLt:
      cmpRR(Cond::L, O);
      break;
    case Opcode::CmpLtU:
      cmpRR(Cond::B, O);
      break;
    case Opcode::CmpEqI:
      cmpRI(Cond::E, O);
      break;
    case Opcode::CmpLtI:
      cmpRI(Cond::L, O);
      break;
    case Opcode::CmpLtUI:
      cmpRI(Cond::B, O);
      break;
    case Opcode::MovI: {
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        E.movImm(static_cast<HostReg>(D), O.Imm);
        break;
      }
      E.movImm(RAX, O.Imm);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::Mov: {
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        if (O.Rd != O.Ra)
          loadG(static_cast<HostReg>(D), O.Ra);
        break;
      }
      loadG(RAX, O.Ra);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::Load: {
      address(O);
      E.jcc(Cond::Ae, faultStub(Done, FromIter, J));
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        E.loadIndex8(static_cast<HostReg>(D), MemBase, RAX);
        break;
      }
      E.loadIndex8(RAX, MemBase, RAX);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::Store:
      address(O);
      E.jcc(Cond::Ae, faultStub(Done, FromIter, J));
      loadG(RCX, O.Rb);
      E.storeIndex8(MemBase, RAX, RCX);
      break;
    case Opcode::FAdd:
      fbin(Sse::AddSd, O);
      break;
    case Opcode::FSub:
      fbin(Sse::SubSd, O);
      break;
    case Opcode::FMul:
      fbin(Sse::MulSd, O);
      break;
    case Opcode::FDiv:
      fbin(Sse::DivSd, O);
      break;
    case Opcode::FConst: {
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        E.movImm(static_cast<HostReg>(D), O.Imm); // raw double bits
        break;
      }
      E.movImm(RAX, O.Imm); // Imm carries the raw double bits
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::FCmpLt:
      E.zero(RCX);
      loadG(RAX, O.Ra);
      E.movqToXmm(0, RAX);
      loadG(RAX, O.Rb);
      E.movqToXmm(1, RAX);
      // ucomisd b, a then "above" gives b > a, i.e. a < b, with any NaN
      // making the comparison unordered (CF=ZF=1) so seta yields 0 —
      // exactly the C++ `<` on doubles.
      E.ucomisd(1, 0);
      E.setcc(Cond::A, RCX);
      storeG(O.Rd, RCX);
      break;
    case Opcode::IToF: {
      loadG(RAX, O.Ra);
      E.cvtsi2sd(0, RAX);
      const int D = HostOf[O.Rd];
      if (D >= 0) {
        E.movqFromXmm(static_cast<HostReg>(D), 0);
        break;
      }
      E.movqFromXmm(RAX, 0);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::FToI: {
      // isfinite(D) ? (int64)D : 0 — finiteness is "exponent field not
      // all ones" on the raw bits, no FP compare needed.
      loadG(RAX, O.Ra);
      E.movImm(RCX, 0x7ff0000000000000LL);
      E.movRR(RDX, RAX);
      E.alu(Alu::And, RDX, RCX);
      E.alu(Alu::Cmp, RDX, RCX);
      const Emitter::Label NotFin = E.newLabel();
      const Emitter::Label DoneL = E.newLabel();
      E.jcc(Cond::E, NotFin);
      E.movqToXmm(0, RAX);
      E.cvttsd2si(RAX, 0);
      E.jmp(DoneL);
      E.bind(NotFin);
      E.zero(RAX);
      E.bind(DoneL);
      storeG(O.Rd, RAX);
      break;
    }
    case Opcode::Nop:
      break;
    }
  }

  void binary(Alu A, const Interpreter::DecodedOp &O, bool Commutes) {
    const int D = HostOf[O.Rd];
    if (D >= 0) {
      const HostReg H = static_cast<HostReg>(D);
      if (O.Rd == O.Ra) {
        aluG(A, H, O.Rb);
        return;
      }
      if (O.Rd != O.Rb) {
        loadG(H, O.Ra);
        aluG(A, H, O.Rb);
        return;
      }
      if (Commutes) { // Rd aliases Rb
        aluG(A, H, O.Ra);
        return;
      }
      // Sub with Rd == Rb still needs the round trip.
    }
    loadG(RAX, O.Ra);
    aluG(A, RAX, O.Rb);
    storeG(O.Rd, RAX);
  }

  /// AndI/OrI/XorI (AddI keeps its skip-zero special case inline).
  void binaryImm(Alu A, const Interpreter::DecodedOp &O) {
    const int D = HostOf[O.Rd];
    if (D >= 0) {
      const HostReg H = static_cast<HostReg>(D);
      if (O.Rd != O.Ra)
        loadG(H, O.Ra);
      aluImm64(A, H, O.Imm);
      return;
    }
    loadG(RAX, O.Ra);
    aluImm64(A, RAX, O.Imm);
    storeG(O.Rd, RAX);
  }

  void shiftImm(Shift K, const Interpreter::DecodedOp &O) {
    const int D = HostOf[O.Rd];
    if (D >= 0) {
      const HostReg H = static_cast<HostReg>(D);
      if (O.Rd != O.Ra)
        loadG(H, O.Ra);
      E.shiftImm(K, H, static_cast<uint8_t>(O.Imm & 63));
      return;
    }
    loadG(RAX, O.Ra);
    E.shiftImm(K, RAX, static_cast<uint8_t>(O.Imm & 63));
    storeG(O.Rd, RAX);
  }

  void cmpRR(Cond C, const Interpreter::DecodedOp &O) {
    const int D = HostOf[O.Rd];
    if (D >= 0 && O.Rd != O.Ra && O.Rd != O.Rb) {
      const HostReg H = static_cast<HostReg>(D);
      E.zero(H);
      loadG(RAX, O.Ra);
      aluG(Alu::Cmp, RAX, O.Rb);
      E.setcc(C, H);
      return;
    }
    E.zero(RCX);
    loadG(RAX, O.Ra);
    aluG(Alu::Cmp, RAX, O.Rb);
    E.setcc(C, RCX);
    storeG(O.Rd, RCX);
  }

  void cmpRI(Cond C, const Interpreter::DecodedOp &O) {
    const int D = HostOf[O.Rd];
    if (D >= 0 && O.Rd != O.Ra) {
      const HostReg H = static_cast<HostReg>(D);
      E.zero(H);
      loadG(RAX, O.Ra);
      aluImm64(Alu::Cmp, RAX, O.Imm);
      E.setcc(C, H);
      return;
    }
    E.zero(RCX);
    loadG(RAX, O.Ra);
    aluImm64(Alu::Cmp, RAX, O.Imm);
    E.setcc(C, RCX);
    storeG(O.Rd, RCX);
  }

  void shiftReg(Shift K, const Interpreter::DecodedOp &O) {
    // The hardware masks the CL count to 63 in 64-bit mode — the guest's
    // "& 63" for free.
    const int D = HostOf[O.Rd];
    if (D >= 0) {
      const HostReg H = static_cast<HostReg>(D);
      loadG(RCX, O.Rb); // count first: H may alias guest Rb
      if (O.Rd != O.Ra)
        loadG(H, O.Ra);
      E.shiftCl(K, H);
      return;
    }
    loadG(RAX, O.Ra);
    loadG(RCX, O.Rb);
    E.shiftCl(K, RAX);
    storeG(O.Rd, RAX);
  }

  void divRem(const Interpreter::DecodedOp &O, bool Rem) {
    // Guest-defined: /0 and INT64_MIN / -1 both yield 0 (the latter traps
    // in hardware, so it must be guarded, not just special-cased).
    const Emitter::Label Zero = E.newLabel();
    const Emitter::Label DoDiv = E.newLabel();
    const Emitter::Label DoneL = E.newLabel();
    loadG(RAX, O.Ra);
    loadG(RCX, O.Rb);
    E.test(RCX, RCX);
    E.jcc(Cond::E, Zero);
    E.aluImm(Alu::Cmp, RCX, -1);
    E.jcc(Cond::Ne, DoDiv);
    E.movImm(RDX, INT64_MIN);
    E.alu(Alu::Cmp, RAX, RDX);
    E.jcc(Cond::E, Zero);
    E.bind(DoDiv);
    E.cqo();
    E.idiv(RCX);
    if (Rem)
      E.movRR(RAX, RDX);
    E.jmp(DoneL);
    E.bind(Zero);
    E.zero(RAX);
    E.bind(DoneL);
    storeG(O.Rd, RAX);
  }

  void fbin(Sse Op, const Interpreter::DecodedOp &O) {
    loadG(RAX, O.Ra);
    E.movqToXmm(0, RAX);
    loadG(RAX, O.Rb);
    E.movqToXmm(1, RAX);
    E.sse(Op, 0, 1);
    const int D = HostOf[O.Rd];
    if (D >= 0) {
      E.movqFromXmm(static_cast<HostReg>(D), 0);
      return;
    }
    E.movqFromXmm(RAX, 0);
    storeG(O.Rd, RAX);
  }

  /// RAX = Regs[Ra] + Imm (the uint64 wrap matches the interpreter's
  /// address arithmetic), flags = RAX ? MemSize; the caller jumps Ae
  /// (Addr >= MemSize) to the fault stub.
  void address(const Interpreter::DecodedOp &O) {
    loadG(RAX, O.Ra);
    if (O.Imm)
      aluImm64(Alu::Add, RAX, O.Imm);
    E.alu(Alu::Cmp, RAX, MemLimit);
  }

  // --- Terminators ------------------------------------------------------

  /// Evaluates a Branch terminator's condition; returns the flag condition
  /// that is true exactly when the branch is taken.
  Cond emitTakenCond(const Interpreter::DecodedTerm &T) {
    assert(T.Code == Interpreter::TermCode::Branch &&
           "only conditional terminators are guarded");
    const CondKind CK = static_cast<CondKind>(T.Cond);
    loadG(RAX, T.Ra);
    if (guest::condUsesImm(CK))
      aluImm64(Alu::Cmp, RAX, T.Imm);
    else
      aluG(Alu::Cmp, RAX, T.Rb);
    switch (CK) {
    case CondKind::Eq:
    case CondKind::EqI:
      return Cond::E;
    case CondKind::Ne:
    case CondKind::NeI:
      return Cond::Ne;
    case CondKind::Lt:
    case CondKind::LtI:
      return Cond::L;
    case CondKind::Ge:
    case CondKind::GeI:
      return Cond::Ge;
    case CondKind::LtU:
      return Cond::B;
    case CondKind::GeU:
      return Cond::Ae;
    }
    return Cond::E;
  }

  /// The guard: deviating from the predicted edge exits through a deopt
  /// stub whose taken bit is the *actual* (unpredicted) direction. The
  /// predicted successor stays the fall-through — initial prediction
  /// decides the layout.
  void emitChainGuard(const JitSegment &S, size_t Idx) {
    if (S.Term.Code == Interpreter::TermCode::Jump)
      return; // static successor — nothing can deviate
    const Cond Taken = emitTakenCond(S.Term);
    if (S.ExpectTaken)
      E.jcc(negate(Taken), stub(Idx, false, offInfo(/*Taken=*/false)));
    else
      E.jcc(Taken, stub(Idx, false, offInfo(/*Taken=*/true)));
  }

  Emitter E;
  /// Host register holding each guest register, or -1 when it lives in
  /// the Regs array (ops writing such a register go through RAX).
  std::array<int8_t, guest::NumRegs> HostOf;
  uint32_t Uses[guest::NumRegs] = {};
  std::vector<std::pair<HostReg, uint8_t>> Allocated;
  std::vector<Stub> Stubs;
  Emitter::Label FlushL = 0;
};

} // namespace

std::vector<uint8_t> tpdbt::jit::compileChain(const JitSegment *Segs,
                                              size_t N) {
  return Compiler().chain(Segs, N);
}

std::vector<uint8_t>
tpdbt::jit::compileSelfLoop(const vm::Interpreter::DecodedOp *Begin,
                            const vm::Interpreter::DecodedOp *End,
                            const vm::Interpreter::DecodedTerm &Term,
                            uint8_t StayBranch) {
  return Compiler().selfLoop(Begin, End, Term, StayBranch);
}
