//===- tests/ScopedEnv.h - Scoped environment variable ----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef TPDBT_TESTS_SCOPEDENV_H
#define TPDBT_TESTS_SCOPEDENV_H

#include <cstdlib>
#include <string>

namespace tpdbt {

/// Sets (or, given nullptr, unsets) an environment variable for one test
/// scope and restores the previous value (or absence) on destruction. The
/// tier knobs are re-read on every use, so this is all a test needs.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *Prev = std::getenv(Name);
    Had = Prev != nullptr;
    if (Had)
      Old = Prev;
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;
  ~ScopedEnv() {
    if (Had)
      setenv(Name.c_str(), Old.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }

private:
  std::string Name;
  std::string Old;
  bool Had = false;
};

} // namespace tpdbt

#endif // TPDBT_TESTS_SCOPEDENV_H
