//===- guest/Program.h - Guest program container ----------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Program container: basic blocks of guest instructions plus initial
/// memory. Programs are immutable once built (see ProgramBuilder).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_GUEST_PROGRAM_H
#define TPDBT_GUEST_PROGRAM_H

#include "guest/Isa.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tpdbt {
namespace guest {

/// A basic block: straight-line instructions plus one terminator.
struct Block {
  std::vector<Inst> Insts;
  Terminator Term;
  /// Optional label for diagnostics/disassembly.
  std::string Name;
};

/// An immutable guest program.
///
/// Memory is word (int64) addressed; \c MemWords words are zero-initialized
/// and then overlaid with \c InitialMem starting at word 0.
struct Program {
  std::string Name;
  std::vector<Block> Blocks;
  BlockId Entry = 0;
  uint64_t MemWords = 0;
  std::vector<int64_t> InitialMem;

  size_t numBlocks() const { return Blocks.size(); }

  const Block &block(BlockId Id) const { return Blocks[Id]; }

  /// Total static instruction count, terminators included.
  uint64_t staticInstCount() const;
};

/// Verifies structural invariants: entry in range, all branch targets in
/// range, conditional branches have both targets, register indices valid,
/// initial memory fits. Appends human-readable problems to \p Errors if
/// non-null. Returns true when the program is well-formed.
bool verifyProgram(const Program &P, std::vector<std::string> *Errors);

/// Renders the whole program as text (one instruction per line).
std::string disassemble(const Program &P);

} // namespace guest
} // namespace tpdbt

#endif // TPDBT_GUEST_PROGRAM_H
