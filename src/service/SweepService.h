//===- service/SweepService.h - Dedup/dispatch sweep engine -----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's session/dispatch layer, transport-free (service/Daemon.h
/// owns the sockets; tests drive this class directly):
///
///  - requests resolve to a canonical key — the (executionFingerprint,
///    policyFingerprint) pair of the configuration they imply, plus the
///    request kind and name — and identical in-flight requests coalesce:
///    the first becomes the leader and computes, the rest wait on the
///    leader's flight and fan its result out (Coalesced in the reply,
///    one Computed for the whole batch);
///  - one ExperimentContext per distinct configuration, all attached to
///    a single process-wide TraceCache, so clients asking about the same
///    program under different policy knobs share one warm recording and
///    the disk store obeys one TPDBT_CACHE_MAX_BYTES budget;
///  - admission control: at most MaxActive computations (and therefore
///    recordings) run at once — excess leaders queue (Queued counter);
///    per-client depth limits live in the Daemon, which sees connections;
///  - one .prof writer (core::ProfWriter, a one-worker pool behind a
///    bounded queue) lent to every context: a computation formats its
///    snapshots, queues them, and answers without waiting for the files.
///    The writer outlives every context and drains on destruction, so a
///    SHUTDOWN or signal exit leaves every queued file on disk.
///
/// Stampede protection below this layer is unchanged: TraceCache's
/// per-slot once-guards serialize same-key recordings and every cache
/// file is written atomically (write-then-rename).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SERVICE_SWEEPSERVICE_H
#define TPDBT_SERVICE_SWEEPSERVICE_H

#include "core/Experiment.h"
#include "service/Protocol.h"
#include "support/Table.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tpdbt {
namespace service {

/// Daemon-side limits, from the environment:
///   TPDBT_SWEEPD_MAX_ACTIVE   concurrent computations (default: hardware
///                             concurrency)
///   TPDBT_SWEEPD_CLIENT_DEPTH outstanding requests per client connection
///                             (default 16; excess answered Busy)
struct ServiceLimits {
  unsigned MaxActive = 0; ///< 0 = hardware concurrency
  unsigned ClientDepth = 16;

  static ServiceLimits fromEnv();
  unsigned effectiveMaxActive() const;
};

/// Aggregate dispatch counters (all monotonic except the two gauges).
struct ServiceCounters {
  std::atomic<uint64_t> Served{0};    ///< results delivered, any status
  std::atomic<uint64_t> Computed{0};  ///< computations actually run
  std::atomic<uint64_t> Coalesced{0}; ///< requests served by another's run
  std::atomic<uint64_t> Queued{0};    ///< leaders that waited for a slot
  std::atomic<uint64_t> Rejected{0};  ///< invalid requests refused here
  /// Gauges: coalesced requests currently waiting on a flight, and
  /// computations currently holding an admission slot.
  std::atomic<uint64_t> FlightWaiters{0};
  std::atomic<uint64_t> Active{0};
};

/// Coalescing, admission-controlled executor of sweep/figure requests.
class SweepService {
public:
  /// \p Base supplies everything a request does not: cache directory,
  /// job count, and the DbtOptions defaults. Scale and thresholds come
  /// from each request.
  SweepService(core::ExperimentConfig Base, ServiceLimits Limits);

  /// What run() hands back; the Daemon wraps it into a RESULT frame.
  struct Outcome {
    Status ResultStatus = Status::Ok;
    bool Coalesced = false;
    bool WasQueued = false;
    std::string Payload; ///< CSV on Ok, message otherwise
  };

  using ProgressFn = std::function<void(const std::string &Stage)>;

  /// Runs (or coalesces onto) the computation for \p R, blocking until
  /// its result is available. Thread-safe; called from one daemon thread
  /// per outstanding request. \p Progress may be empty.
  Outcome run(const SweepRequest &R, const ProgressFn &Progress = {});

  /// Validates \p R against \p Base and materializes the configuration
  /// it implies. Shared with the client's --local mode so both sides
  /// construct byte-identical experiments. Returns Ok or BadRequest
  /// (with a message in \p Error).
  static Status resolveConfig(const core::ExperimentConfig &Base,
                              const SweepRequest &R,
                              core::ExperimentConfig &Out,
                              std::string *Error);

  /// Builds the request's table against a ready context: the figure
  /// registry builder for Figure requests, core::sweepTable for Sweep
  /// requests. The CSV of this table is the RESULT payload and is
  /// byte-identical to the corresponding bench binary's CSV.
  static Table buildTable(core::ExperimentContext &Ctx,
                          const SweepRequest &R);

  const ServiceCounters &stats() const { return Counters; }
  const core::TraceCache::Counters &traceStats() const {
    return SharedTraces->stats();
  }
  const ServiceLimits &limits() const { return Limits; }

  /// STATS reply payload: dispatch counters, shared-cache counters, and
  /// the .prof writer's.
  StatsMsg statsCounters() const;

  /// Test hook: when set, the computation leader calls this after taking
  /// its admission slot and before building — tests park the leader here
  /// to make coalescing deterministic.
  std::function<void()> BeforeBuild;

private:
  struct Flight {
    std::mutex Lock;
    std::condition_variable DoneCv;
    bool Done = false;
    Status ResultStatus = Status::Ok;
    std::string Payload;
  };

  core::ExperimentContext &contextFor(const core::ExperimentConfig &C);
  uint64_t requestKey(const SweepRequest &R,
                      const core::ExperimentConfig &C) const;

  core::ExperimentConfig Base;
  ServiceLimits Limits;
  /// The process-wide trace store every context records into.
  std::shared_ptr<core::TraceCache> SharedTraces;

  /// Write-behind for every context's .prof stores. Declared before
  /// Contexts: it outlives them all, and its destructor drains the queue.
  core::ProfWriter Writer;

  mutable std::mutex CtxLock; ///< guards the context pool structure
  std::map<uint64_t, std::unique_ptr<core::ExperimentContext>> Contexts;

  std::mutex FlightsLock; ///< guards the in-flight map structure
  std::map<uint64_t, std::shared_ptr<Flight>> Flights;

  std::mutex AdmitLock; ///< admission slots (MaxActive leaders)
  std::condition_variable SlotFree;
  unsigned ActiveLeaders = 0;

  ServiceCounters Counters;
};

} // namespace service
} // namespace tpdbt

#endif // TPDBT_SERVICE_SWEEPSERVICE_H
