//===- tests/guest/AssemblerTest.cpp - Assembler unit tests -----*- C++ -*-===//

#include "guest/Assembler.h"

#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::guest;

namespace {

Program assembleOk(const std::string &Src) {
  Program P;
  std::string Error;
  bool Ok = assembleProgram(Src, P, &Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

std::string assembleErr(const std::string &Src) {
  Program P;
  std::string Error;
  EXPECT_FALSE(assembleProgram(Src, P, &Error));
  return Error;
}

} // namespace

TEST(AssemblerTest, CountedLoopRunsCorrectly) {
  Program P = assembleOk(R"(
    .program counted
    entry:
        movi  r1, 0
    head:
        addi  r1, r1, 1
        blti  r1, 100, head, exit
    exit:
        halt
  )");
  EXPECT_EQ(P.Name, "counted");
  ASSERT_EQ(P.numBlocks(), 3u);

  vm::Machine M;
  M.reset(P);
  vm::Interpreter I(P);
  vm::RunOutcome Out = I.run(M, 100000);
  EXPECT_EQ(Out.Reason, vm::StopReason::Halted);
  EXPECT_EQ(M.Regs[1], 100);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  Program P = assembleOk(R"(
    ; leading comment
    start:          # trailing comment styles both work
        nop         ; mid-block
        halt
  )");
  EXPECT_EQ(P.Blocks[0].Insts.size(), 1u);
}

TEST(AssemblerTest, MemoryDirectives) {
  Program P = assembleOk(R"(
    .memwords 32
    .mem 5 -7 0x10
    main:
        load r1, r0, 2
        halt
  )");
  EXPECT_EQ(P.MemWords, 32u);
  ASSERT_EQ(P.InitialMem.size(), 3u);
  EXPECT_EQ(P.InitialMem[1], -7);
  EXPECT_EQ(P.InitialMem[2], 16);

  vm::Machine M;
  M.reset(P);
  vm::Interpreter I(P);
  I.run(M, 10);
  EXPECT_EQ(M.Regs[1], 16);
}

TEST(AssemblerTest, ImplicitFallthrough) {
  Program P = assembleOk(R"(
    a:
        movi r1, 1
    b:
        movi r2, 2
        halt
  )");
  EXPECT_EQ(P.Blocks[0].Term.Kind, TermKind::Jump);
  EXPECT_EQ(P.Blocks[0].Term.Taken, 1u);
}

TEST(AssemblerTest, StoreOperandOrder) {
  // store value, base, offset
  Program P = assembleOk(R"(
    .memwords 8
    m:
        movi r1, 42
        movi r2, 3
        store r1, r2, 1
        halt
  )");
  vm::Machine M;
  M.reset(P);
  vm::Interpreter I(P);
  I.run(M, 10);
  EXPECT_EQ(M.Mem[4], 42);
}

TEST(AssemblerTest, RegisterBranches) {
  Program P = assembleOk(R"(
    e:
        movi r1, 3
        movi r2, 5
        blt  r1, r2, yes, no
    yes:
        movi r3, 1
        halt
    no:
        movi r3, 0
        halt
  )");
  vm::Machine M;
  M.reset(P);
  vm::Interpreter I(P);
  I.run(M, 10);
  EXPECT_EQ(M.Regs[3], 1);
}

TEST(AssemblerTest, RoundTripsThroughDisassemblyStructure) {
  Program P = assembleOk(R"(
    top:
        xori r4, r4, 255
        jmp top
  )");
  // The label names block b0, the immediate survives, and the jump
  // resolves back to the block itself.
  EXPECT_EQ(disassemble(P), "program asm (entry b0, 0 mem words)\n"
                            "b0 top:\n"
                            "    xori     r4 r4 #255\n"
                            "    jump     b0\n");
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  EXPECT_NE(assembleErr("main:\n  bogus r1\n  halt\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(assembleErr("  nop\n").find("before the first label"),
            std::string::npos);
  EXPECT_NE(assembleErr("a:\n  movi r1\n  halt\n").find("immediate"),
            std::string::npos);
  EXPECT_NE(assembleErr("a:\n  jmp nowhere\n").find("unknown label"),
            std::string::npos);
  EXPECT_NE(assembleErr("a:\n  halt\na:\n  halt\n").find("duplicate"),
            std::string::npos);
  EXPECT_NE(assembleErr("a:\n  movi r99, 1\n  halt\n").find("register"),
            std::string::npos);
  EXPECT_NE(assembleErr("last:\n  nop\n").find("no terminator"),
            std::string::npos);
  EXPECT_NE(assembleErr("a:\n  halt\n  nop\n").find("after block"),
            std::string::npos);
  EXPECT_NE(assembleErr(".bogus x\na:\n  halt\n").find("directive"),
            std::string::npos);
  EXPECT_NE(assembleErr("").find("no blocks"), std::string::npos);
}
