//===- jit/ChainCompiler.h - Superblock -> x86-64 compiler ------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles promoted superblock chains and self-loops (vm/HostTier) into
/// real x86-64 machine code.
///
/// The backend is prediction-directed: segment bodies are lowered in
/// program order, the predicted successor of every guard is the
/// fall-through, a self-loop's staying direction is its single backward
/// latch branch, and all deopt/guard-exit stubs live out-of-line in a
/// cold tail after the hot straight-line code, identical stubs emitted
/// once. Ops whose destination is host-allocated compute into that
/// register directly.
///
/// Calling convention of a compiled unit (SysV AMD64):
///
///   JitExit Fn(int64_t *Regs, int64_t *Mem, uint64_t MemSize,
///              uint64_t Budget);
///
/// For a chain, Budget is the number of segments the caller still has
/// block budget for (>= 1) and Done reports how many segments executed
/// and matched their guard. For a self-loop, Budget is the iteration
/// budget and Done reports staying iterations; the deviating (exiting)
/// execution is not counted, mirroring Interpreter::runSelfLoop.
///
/// Every segment terminator is compiled into a *guard*. When the actual
/// branch direction differs from the chain's prediction, or a Load/Store
/// faults, control leaves through a deopt stub that materializes the
/// interpreter state — all host-allocated guest registers are written
/// back to the Regs array — and returns a packed exit code from which the
/// host tier reconstructs the exact BlockResult the plain interpreter
/// would have produced. The delivered event stream therefore stays
/// byte-identical to plain interpretation by construction.
///
/// Register plan: Regs/Mem/MemSize/Budget live in r10/r8/r9/r11 for the
/// whole unit; rax/rcx/rdx/rdi are per-op scratch; rsi counts self-loop
/// iterations; the six callee-saved registers rbx/rbp/r12-r15 hold the
/// most-used guest registers (chosen per unit by static use count), with
/// the remaining guest registers accessed in place at [r10 + 8*g] — the
/// Regs array doubles as the spill area.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_JIT_CHAINCOMPILER_H
#define TPDBT_JIT_CHAINCOMPILER_H

#include "vm/Interpreter.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace jit {

/// Returned by compiled code in rax:rdx.
struct JitExit {
  uint64_t Done; ///< segments matched (chain) / staying iterations (loop)
  uint64_t Info; ///< packed exit kind, see below
};

using JitFn = JitExit (*)(int64_t *Regs, int64_t *Mem, uint64_t MemSize,
                          uint64_t Budget);

/// Info bits 0-1: why the unit returned.
enum class ExitKind : uint8_t {
  Ok = 0,       ///< completed / budget exhausted; no deviating execution
  OffChain = 1, ///< a guarded branch went the unpredicted way
  Fault = 2,    ///< a Load/Store faulted mid-segment
};

inline ExitKind exitKind(uint64_t Info) {
  return static_cast<ExitKind>(Info & 3);
}

/// OffChain: the actual direction of the deviating branch.
inline bool exitTaken(uint64_t Info) { return (Info & 4) != 0; }

/// Fault: index of the faulting op within its segment (InstsExecuted of
/// the deviating execution is this + 1).
inline uint32_t exitFaultOp(uint64_t Info) {
  return static_cast<uint32_t>(Info >> 32);
}

/// One chain segment as the compiler sees it: the decoded body ops, the
/// decoded terminator, and which edge the chain predicts for conditional
/// terminators (ExpectTaken; ignored for Jump). ExpectTaken is the
/// initial-prediction signal that promoted the chain — the compiler lays
/// the predicted successor out as the fall-through and routes the
/// unpredicted edge through a cold exit stub.
struct JitSegment {
  const vm::Interpreter::DecodedOp *Begin = nullptr;
  const vm::Interpreter::DecodedOp *End = nullptr;
  vm::Interpreter::DecodedTerm Term{};
  bool ExpectTaken = false;
};

/// Compiles a chain of \p N segments. Returns finished machine code ready
/// for CodeBuffer::install (never empty).
std::vector<uint8_t> compileChain(const JitSegment *Segs, size_t N);

/// Compiles a self-looping block: body [Begin, End), latch \p Term.
/// \p StayBranch uses the trace encoding (0 = jump-to-self, 1 = staying
/// means not taken, 2 = staying means taken). Every self-loop compiles;
/// the native loop evaluates its latch each iteration.
std::vector<uint8_t>
compileSelfLoop(const vm::Interpreter::DecodedOp *Begin,
                const vm::Interpreter::DecodedOp *End,
                const vm::Interpreter::DecodedTerm &Term, uint8_t StayBranch);

} // namespace jit
} // namespace tpdbt

#endif // TPDBT_JIT_CHAINCOMPILER_H
