//===- tests/guest/ProgramTest.cpp - Program container tests ----*- C++ -*-===//

#include "guest/Program.h"

#include "guest/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace tpdbt::guest;

namespace {

/// A small representative program exercising every serialization case.
Program makeSample() {
  ProgramBuilder PB("sample");
  BlockId A = PB.createBlock("start");
  BlockId B = PB.createBlock();
  BlockId C = PB.createBlock("done");
  PB.setEntry(A);

  PB.switchTo(A);
  PB.movI(1, -7);
  PB.load(2, 0, 3);
  PB.branch(CondKind::LtU, 1, 2, B, C);

  PB.switchTo(B);
  PB.store(1, 0, 4);
  PB.jump(C);

  PB.switchTo(C);
  PB.halt();

  PB.setMemWords(16);
  PB.setInitialMem({5, -6, 7});
  return PB.build();
}

} // namespace

TEST(VerifyProgramTest, AcceptsWellFormed) {
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyProgram(makeSample(), &Errors));
  EXPECT_TRUE(Errors.empty());
}

TEST(VerifyProgramTest, RejectsEmptyProgram) {
  Program P;
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyProgram(P, &Errors));
  EXPECT_FALSE(Errors.empty());
}

TEST(VerifyProgramTest, RejectsBadEntry) {
  Program P = makeSample();
  P.Entry = 99;
  EXPECT_FALSE(verifyProgram(P, nullptr));
}

TEST(VerifyProgramTest, RejectsBadBranchTarget) {
  Program P = makeSample();
  P.Blocks[0].Term.Taken = 99;
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyProgram(P, &Errors));
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("target"), std::string::npos);
}

TEST(VerifyProgramTest, RejectsBadRegister) {
  Program P = makeSample();
  P.Blocks[0].Insts[0].Rd = NumRegs; // out of range dest
  EXPECT_FALSE(verifyProgram(P, nullptr));
}

TEST(VerifyProgramTest, RejectsOversizedInitialMem) {
  Program P = makeSample();
  P.MemWords = 1;
  EXPECT_FALSE(verifyProgram(P, nullptr));
}

TEST(DisassembleTest, MentionsEveryBlock) {
  std::string Text = disassemble(makeSample());
  EXPECT_NE(Text.find("b0 start:"), std::string::npos);
  EXPECT_NE(Text.find("b1:"), std::string::npos);
  EXPECT_NE(Text.find("b2 done:"), std::string::npos);
  EXPECT_NE(Text.find("halt"), std::string::npos);
  EXPECT_NE(Text.find("br.ltu"), std::string::npos);
}
