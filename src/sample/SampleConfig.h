//===- sample/SampleConfig.h - Approximate-replay configuration -*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the stratified-sampling replay mode (src/sample/):
/// whether sampled estimation is on, what fraction of a trace's segments
/// gets replayed, and the seed that pins segment selection. Header-only so
/// core/Experiment.h can embed it without a link dependency.
///
/// Environment knobs (read by SampleConfig::fromEnv, fresh every call):
///   TPDBT_SAMPLE_MODE    off (default) | stratified
///   TPDBT_SAMPLE_BUDGET  fraction of segments to replay, in (0, 1]
///                        (default 0.25)
///   TPDBT_SAMPLE_SEED    selection seed (default 0x5eed); results are
///                        deterministic for a fixed seed at any job count
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SAMPLE_SAMPLECONFIG_H
#define TPDBT_SAMPLE_SAMPLECONFIG_H

#include "support/Rng.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace tpdbt {
namespace sample {

/// Approximate-replay settings, carried inside core::ExperimentConfig.
/// Deliberately excluded from the .prof cache fingerprints: sampled runs
/// never write snapshot cache entries, so the exact-path artifacts stay
/// byte-identical whether this struct exists or not.
struct SampleConfig {
  enum class Mode : uint8_t { Off = 0, Stratified = 1 };

  Mode Kind = Mode::Off;
  /// Fraction of a trace's segments to decode and replay, in (0, 1].
  double BudgetFrac = 0.25;
  /// Seed for segment selection (combined with the benchmark fingerprint
  /// so every benchmark draws an independent sample).
  uint64_t Seed = 0x5eed;
  /// Cap on the number of phases the leader clustering may open.
  unsigned MaxPhases = 8;

  bool enabled() const { return Kind == Mode::Stratified; }

  /// Applies TPDBT_SAMPLE_MODE / TPDBT_SAMPLE_BUDGET / TPDBT_SAMPLE_SEED.
  static SampleConfig fromEnv() {
    SampleConfig C;
    if (const char *M = std::getenv("TPDBT_SAMPLE_MODE"))
      if (std::strcmp(M, "stratified") == 0)
        C.Kind = Mode::Stratified;
    if (const char *B = std::getenv("TPDBT_SAMPLE_BUDGET")) {
      double V = std::atof(B);
      if (V > 0.0 && V <= 1.0)
        C.BudgetFrac = V;
    }
    if (const char *S = std::getenv("TPDBT_SAMPLE_SEED"))
      C.Seed = std::strtoull(S, nullptr, 0);
    return C;
  }

  /// Stable fingerprint of the sampling knobs. Used by the sweep daemon's
  /// request key so sampled and exact requests for the same figure never
  /// coalesce; never part of the .prof / .trace cache keys.
  uint64_t fingerprint() const {
    uint64_t H = 0x5a3bu; // sample-layer salt
    H = combineSeeds(H, static_cast<uint64_t>(Kind));
    uint64_t BudgetBits;
    static_assert(sizeof(double) == sizeof(uint64_t));
    std::memcpy(&BudgetBits, &BudgetFrac, 8);
    H = combineSeeds(H, BudgetBits);
    H = combineSeeds(H, Seed);
    H = combineSeeds(H, MaxPhases);
    return H;
  }
};

} // namespace sample
} // namespace tpdbt

#endif // TPDBT_SAMPLE_SAMPLECONFIG_H
