//===- vm/Interpreter.h - Block-level guest interpreter ---------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A block-at-a-time interpreter for guest programs.
///
/// The two-phase DBT engine (src/dbt) drives execution one block at a time
/// via executeBlock() — exactly the granularity at which IA32EL's profiling
/// phase instruments code (per-block "use" and "taken" counters). The run()
/// loop is the plain event pump; the host translation tier (vm/HostTier.h)
/// wraps the same executeBlock()/executeOps() primitives in a tiered
/// dispatch loop that batches hot chains and self-loops.
///
/// Construction pre-decodes the program into one contiguous instruction
/// stream (all blocks back to back, indexed by a per-block offset table)
/// with the terminator decoded into a fixed-size record per block, so the
/// dispatch loop touches two flat arrays instead of chasing a
/// vector-of-vectors. Every body instruction decodes to exactly one op,
/// so a block's InstsExecuted is its op count plus one for the
/// terminator; the host tier and the jit rely on that.
///
/// Decode also marks every self-looping block (a conditional branch or
/// jump whose target is the block itself) for the host tier, which runs
/// its consecutive iterations back to back and emits them as one run of
/// identical events. Each iteration executes the body and evaluates the
/// latch; the jit's compiled loop (src/jit) does the same natively.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_VM_INTERPRETER_H
#define TPDBT_VM_INTERPRETER_H

#include "guest/Program.h"
#include "vm/Machine.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace tpdbt {
namespace vm {

class HostTier;

/// Why block execution stopped advancing.
enum class StopReason : uint8_t {
  Running,    ///< block completed; Next is valid
  Halted,     ///< executed a Halt terminator
  MemFault,   ///< out-of-bounds memory access
  BlockLimit, ///< run() exhausted its block budget
};

/// Result of executing one block.
struct BlockResult {
  guest::BlockId Next = guest::InvalidBlock;
  StopReason Reason = StopReason::Running;
  bool IsCondBranch = false; ///< block ends in a conditional branch
  bool Taken = false;        ///< branch outcome; valid if IsCondBranch
  uint32_t InstsExecuted = 0;
};

/// Aggregate outcome of a run() loop.
struct RunOutcome {
  StopReason Reason = StopReason::Halted;
  uint64_t BlocksExecuted = 0;
  uint64_t InstsExecuted = 0;
  guest::BlockId LastBlock = guest::InvalidBlock;
};

/// Interprets one program. The interpreter holds a reference to the
/// program plus its pre-decoded instruction stream; the caller owns
/// machine state, so multiple independent runs can share one Interpreter.
class Interpreter {
public:
  explicit Interpreter(const guest::Program &P);

  const guest::Program &program() const { return P; }

  /// Executes the straight-line body and terminator of block \p Id against
  /// \p M. Returns where control goes next.
  BlockResult executeBlock(guest::BlockId Id, Machine &M) const;

  /// Runs from the program entry until Halt, a fault, or \p MaxBlocks
  /// block executions. \p OnBlock is invoked as
  /// OnBlock(BlockId, const BlockResult &) after each block.
  template <typename CallbackT>
  RunOutcome run(Machine &M, uint64_t MaxBlocks, CallbackT &&OnBlock) const {
    RunOutcome Out;
    guest::BlockId Cur = P.Entry;
    while (Out.BlocksExecuted < MaxBlocks) {
      BlockResult R = executeBlock(Cur, M);
      ++Out.BlocksExecuted;
      Out.InstsExecuted += R.InstsExecuted;
      Out.LastBlock = Cur;
      OnBlock(Cur, R);
      if (R.Reason != StopReason::Running) {
        Out.Reason = R.Reason;
        return Out;
      }
      Cur = R.Next;
    }
    Out.Reason = StopReason::BlockLimit;
    return Out;
  }

  /// run() without a callback.
  RunOutcome run(Machine &M, uint64_t MaxBlocks) const {
    return run(M, MaxBlocks, [](guest::BlockId, const BlockResult &) {});
  }

  /// Decode-time classification of a block as a self-loop (see \file
  /// comment).
  struct SelfLoop {
    bool IsLoop = false; ///< the block branches or jumps back to itself
    /// Trace branch code of a staying iteration: 0 = jump-to-self,
    /// 1 = cond branch not taken, 2 = cond branch taken. Exact because
    /// degenerate latches with Taken == Fall are never classified.
    uint8_t StayBranch = 0;
    uint32_t FullInsts = 0; ///< InstsExecuted of one staying iteration
  };

  const SelfLoop &selfLoop(guest::BlockId Id) const { return SelfLoops[Id]; }

  /// Executes consecutive staying iterations of self-loop \p Id (the
  /// machine must be at the block's entry) up to \p MaxIters. Returns the
  /// number of stays executed; every stay is one block event identical to
  /// StayBranch/FullInsts. If the loop stopped for a reason other than the
  /// iteration budget, \p Exit holds the final (deviating or faulting)
  /// block execution and \p ExitValid is true; that execution is *not*
  /// counted in the return value.
  uint64_t runSelfLoop(guest::BlockId Id, Machine &M, uint64_t MaxIters,
                       BlockResult &Exit, bool &ExitValid) const;

  /// One pre-decoded body instruction (16 bytes; the opcode/register
  /// fields share a word, the immediate rides alongside). The decoded
  /// forms below are public: they are the contract consumed by the host
  /// translation tier (vm/HostTier.h) and the machine-code compiler
  /// (src/jit), both of which must reproduce executeOps() semantics
  /// exactly.
  struct DecodedOp {
    guest::Opcode Op;
    uint8_t Rd, Ra, Rb;
    int64_t Imm;
  };

  /// How a decoded block terminates.
  enum class TermCode : uint8_t {
    Jump,   ///< unconditional
    Halt,   ///< program end
    Branch, ///< conditional branch; Cond holds the guest::CondKind
  };

  /// Fixed-size decoded terminator.
  struct DecodedTerm {
    TermCode Code;
    uint8_t Cond;
    uint8_t Ra, Rb;
    int64_t Imm;
    guest::BlockId Taken, Fall;
  };

  /// Executes decoded body instructions [Begin, End). Returns the index
  /// of the instruction that faulted, or -1 on completion. The single
  /// source of op semantics: executeBlock(), runSelfLoop() (through
  /// executeBlock) and the host tier's superblock dispatch all execute through it; the jit
  /// lowering is differential-tested against it op by op.
  static intptr_t executeOps(const DecodedOp *Begin, const DecodedOp *End,
                             int64_t *Regs, int64_t *Mem, uint64_t MemSize);

  /// Evaluates a TermCode::Branch condition.
  static bool evalBranch(const DecodedTerm &T, const int64_t *Regs);

private:
  friend class HostTier;

  void classifySelfLoops();

  const guest::Program &P;
  /// All body instructions, blocks back to back; block \p Id owns
  /// [First[Id], First[Id + 1]).
  std::vector<DecodedOp> Ops;
  std::vector<uint32_t> First;
  std::vector<DecodedTerm> Terms;
  std::vector<SelfLoop> SelfLoops;
};


namespace detail {
inline double asDouble(int64_t Bits) { return std::bit_cast<double>(Bits); }
inline int64_t asBits(double D) { return std::bit_cast<int64_t>(D); }
} // namespace detail

// Inline so the dispatch loops (run() and the host tier) fully inline
// interpretation into their callers: the loop then keeps register-file and
// memory pointers live across blocks instead of re-establishing them
// through an out-of-line call per block event.
inline intptr_t Interpreter::executeOps(const DecodedOp *Begin,
                                        const DecodedOp *End, int64_t *Regs,
                                        int64_t *Mem, uint64_t MemSize) {
  for (const DecodedOp *Op = Begin; Op != End; ++Op) {
    switch (Op->Op) {
    case guest::Opcode::Add:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra]) +
                                          static_cast<uint64_t>(Regs[Op->Rb]));
      break;
    case guest::Opcode::Sub:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra]) -
                                          static_cast<uint64_t>(Regs[Op->Rb]));
      break;
    case guest::Opcode::Mul:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra]) *
                                          static_cast<uint64_t>(Regs[Op->Rb]));
      break;
    case guest::Opcode::Divs:
      Regs[Op->Rd] = (Regs[Op->Rb] == 0 ||
                      (Regs[Op->Ra] == INT64_MIN && Regs[Op->Rb] == -1))
                         ? 0
                         : Regs[Op->Ra] / Regs[Op->Rb];
      break;
    case guest::Opcode::Rems:
      Regs[Op->Rd] = (Regs[Op->Rb] == 0 ||
                      (Regs[Op->Ra] == INT64_MIN && Regs[Op->Rb] == -1))
                         ? 0
                         : Regs[Op->Ra] % Regs[Op->Rb];
      break;
    case guest::Opcode::And:
      Regs[Op->Rd] = Regs[Op->Ra] & Regs[Op->Rb];
      break;
    case guest::Opcode::Or:
      Regs[Op->Rd] = Regs[Op->Ra] | Regs[Op->Rb];
      break;
    case guest::Opcode::Xor:
      Regs[Op->Rd] = Regs[Op->Ra] ^ Regs[Op->Rb];
      break;
    case guest::Opcode::Shl:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra])
                                          << (Regs[Op->Rb] & 63));
      break;
    case guest::Opcode::Shr:
      Regs[Op->Rd] = static_cast<int64_t>(
          static_cast<uint64_t>(Regs[Op->Ra]) >> (Regs[Op->Rb] & 63));
      break;
    case guest::Opcode::Sar:
      Regs[Op->Rd] = Regs[Op->Ra] >> (Regs[Op->Rb] & 63);
      break;
    case guest::Opcode::AddI:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra]) +
                                          static_cast<uint64_t>(Op->Imm));
      break;
    case guest::Opcode::MulI:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra]) *
                                          static_cast<uint64_t>(Op->Imm));
      break;
    case guest::Opcode::AndI:
      Regs[Op->Rd] = Regs[Op->Ra] & Op->Imm;
      break;
    case guest::Opcode::OrI:
      Regs[Op->Rd] = Regs[Op->Ra] | Op->Imm;
      break;
    case guest::Opcode::XorI:
      Regs[Op->Rd] = Regs[Op->Ra] ^ Op->Imm;
      break;
    case guest::Opcode::ShlI:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra])
                                          << (Op->Imm & 63));
      break;
    case guest::Opcode::ShrI:
      Regs[Op->Rd] = static_cast<int64_t>(static_cast<uint64_t>(Regs[Op->Ra]) >>
                                          (Op->Imm & 63));
      break;
    case guest::Opcode::CmpEq:
      Regs[Op->Rd] = Regs[Op->Ra] == Regs[Op->Rb];
      break;
    case guest::Opcode::CmpLt:
      Regs[Op->Rd] = Regs[Op->Ra] < Regs[Op->Rb];
      break;
    case guest::Opcode::CmpLtU:
      Regs[Op->Rd] = static_cast<uint64_t>(Regs[Op->Ra]) <
                     static_cast<uint64_t>(Regs[Op->Rb]);
      break;
    case guest::Opcode::CmpEqI:
      Regs[Op->Rd] = Regs[Op->Ra] == Op->Imm;
      break;
    case guest::Opcode::CmpLtI:
      Regs[Op->Rd] = Regs[Op->Ra] < Op->Imm;
      break;
    case guest::Opcode::CmpLtUI:
      Regs[Op->Rd] = static_cast<uint64_t>(Regs[Op->Ra]) <
                     static_cast<uint64_t>(Op->Imm);
      break;
    case guest::Opcode::MovI:
      Regs[Op->Rd] = Op->Imm;
      break;
    case guest::Opcode::Mov:
      Regs[Op->Rd] = Regs[Op->Ra];
      break;
    case guest::Opcode::Load: {
      uint64_t Addr = static_cast<uint64_t>(Regs[Op->Ra]) +
                      static_cast<uint64_t>(Op->Imm);
      if (Addr >= MemSize)
        return Op - Begin;
      Regs[Op->Rd] = Mem[Addr];
      break;
    }
    case guest::Opcode::Store: {
      uint64_t Addr = static_cast<uint64_t>(Regs[Op->Ra]) +
                      static_cast<uint64_t>(Op->Imm);
      if (Addr >= MemSize)
        return Op - Begin;
      Mem[Addr] = Regs[Op->Rb];
      break;
    }
    case guest::Opcode::FAdd:
      Regs[Op->Rd] = detail::asBits(detail::asDouble(Regs[Op->Ra]) +
                                    detail::asDouble(Regs[Op->Rb]));
      break;
    case guest::Opcode::FSub:
      Regs[Op->Rd] = detail::asBits(detail::asDouble(Regs[Op->Ra]) -
                                    detail::asDouble(Regs[Op->Rb]));
      break;
    case guest::Opcode::FMul:
      Regs[Op->Rd] = detail::asBits(detail::asDouble(Regs[Op->Ra]) *
                                    detail::asDouble(Regs[Op->Rb]));
      break;
    case guest::Opcode::FDiv:
      Regs[Op->Rd] = detail::asBits(detail::asDouble(Regs[Op->Ra]) /
                                    detail::asDouble(Regs[Op->Rb]));
      break;
    case guest::Opcode::FConst:
      Regs[Op->Rd] = Op->Imm; // Imm carries the raw double bits
      break;
    case guest::Opcode::FCmpLt:
      Regs[Op->Rd] =
          detail::asDouble(Regs[Op->Ra]) < detail::asDouble(Regs[Op->Rb]);
      break;
    case guest::Opcode::IToF:
      Regs[Op->Rd] = detail::asBits(static_cast<double>(Regs[Op->Ra]));
      break;
    case guest::Opcode::FToI: {
      double D = detail::asDouble(Regs[Op->Ra]);
      Regs[Op->Rd] = std::isfinite(D) ? static_cast<int64_t>(D) : 0;
      break;
    }
    case guest::Opcode::Nop:
      break;
    }
  }
  return -1;
}

inline bool Interpreter::evalBranch(const DecodedTerm &T,
                                    const int64_t *Regs) {
  const int64_t A = Regs[T.Ra];
  switch (static_cast<guest::CondKind>(T.Cond)) {
  case guest::CondKind::Eq:
    return A == Regs[T.Rb];
  case guest::CondKind::Ne:
    return A != Regs[T.Rb];
  case guest::CondKind::Lt:
    return A < Regs[T.Rb];
  case guest::CondKind::Ge:
    return A >= Regs[T.Rb];
  case guest::CondKind::LtU:
    return static_cast<uint64_t>(A) < static_cast<uint64_t>(Regs[T.Rb]);
  case guest::CondKind::GeU:
    return static_cast<uint64_t>(A) >= static_cast<uint64_t>(Regs[T.Rb]);
  case guest::CondKind::EqI:
    return A == T.Imm;
  case guest::CondKind::NeI:
    return A != T.Imm;
  case guest::CondKind::LtI:
    return A < T.Imm;
  case guest::CondKind::GeI:
    return A >= T.Imm;
  }
  assert(false && "unknown branch condition");
  return false;
}

inline BlockResult Interpreter::executeBlock(guest::BlockId Id,
                                             Machine &M) const {
  assert(Id < P.numBlocks() && "block id out of range");
  BlockResult R;
  int64_t *Regs = M.Regs.data();
  int64_t *Mem = M.Mem.data();
  const uint64_t MemSize = M.Mem.size();

  const DecodedOp *Begin = Ops.data() + First[Id];
  const DecodedOp *const End = Ops.data() + First[Id + 1];
  intptr_t Fault = executeOps(Begin, End, Regs, Mem, MemSize);
  if (Fault >= 0) {
    R.Reason = StopReason::MemFault;
    R.InstsExecuted = static_cast<uint32_t>(Fault) + 1;
    return R;
  }
  R.InstsExecuted = First[Id + 1] - First[Id];

  const DecodedTerm &T = Terms[Id];
  switch (T.Code) {
  case TermCode::Jump:
    ++R.InstsExecuted;
    R.Next = T.Taken;
    return R;
  case TermCode::Halt:
    ++R.InstsExecuted;
    R.Reason = StopReason::Halted;
    return R;
  case TermCode::Branch: {
    ++R.InstsExecuted;
    bool Cond = evalBranch(T, Regs);
    R.IsCondBranch = true;
    R.Taken = Cond;
    R.Next = Cond ? T.Taken : T.Fall;
    return R;
  }
  }
  assert(false && "unknown terminator kind");
  return R;
}

inline uint64_t Interpreter::runSelfLoop(guest::BlockId Id, Machine &M,
                                         uint64_t MaxIters, BlockResult &Exit,
                                         bool &ExitValid) const {
  assert(SelfLoops[Id].IsLoop && "not a self-loop");
  ExitValid = false;
  uint64_t Stays = 0;
  while (Stays < MaxIters) {
    BlockResult R = executeBlock(Id, M);
    if (R.Reason == StopReason::Running && R.Next == Id) {
      ++Stays;
      continue;
    }
    Exit = R;
    ExitValid = true;
    return Stays;
  }
  return Stays;
}

} // namespace vm
} // namespace tpdbt

#endif // TPDBT_VM_INTERPRETER_H
