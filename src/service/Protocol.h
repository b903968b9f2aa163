//===- service/Protocol.h - Sweep-service wire protocol ---------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed framed protocol between tpdbt-sweep clients and
/// the tpdbt-sweepd daemon (docs/PROTOCOL.md is the normative spec):
///
///   frame := u32le payload-length | payload
///   payload := u8 version | u8 type | body
///
/// Bodies are varint/length-prefixed-string encoded with the same
/// support/Varint.h primitives as the TPDT trace format. Frames are
/// bounded (MaxFramePayload) so a corrupt or hostile length prefix never
/// sizes an allocation; every decoder returns false on truncated,
/// oversized, or trailing bytes instead of trusting the peer.
///
/// Versioning rule: the version byte covers the whole payload. A server
/// receiving a frame with an unknown version replies ERROR and closes;
/// adding message types or appending fields to existing bodies bumps the
/// version only when an old peer could misparse them. Frames are stamped
/// with the *lowest* version that can carry them: a v2-capable client
/// still emits plain requests as v1 (so old daemons serve them), and
/// only a request carrying the v2-only sampled-replay fields is stamped
/// v2 (so old daemons reject it with "unsupported protocol version"
/// instead of misreading trailing bytes).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SERVICE_PROTOCOL_H
#define TPDBT_SERVICE_PROTOCOL_H

#include "support/Socket.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tpdbt {
namespace service {

/// Highest protocol version this build speaks (the first payload byte of
/// every frame). v2 added the optional approximate-replay request
/// fields; every other body is unchanged since v1.
constexpr uint8_t ProtocolVersion = 2;

/// Oldest version still accepted by readFrame.
constexpr uint8_t MinProtocolVersion = 1;

/// Hard bound on a frame payload; a length prefix beyond this is treated
/// as a corrupt stream, not an allocation request.
constexpr uint32_t MaxFramePayload = 64u << 20;

/// Message types (the second payload byte).
enum class MsgType : uint8_t {
  Request = 1,  ///< client -> server: run a figure or a benchmark sweep
  Progress = 2, ///< server -> client: stage note for a pending request
  Result = 3,   ///< server -> client: terminal reply for a request
  Stats = 4,    ///< both directions: counters request / reply
  Shutdown = 5, ///< client -> server: stop the daemon after a Result ack
  Error = 6,    ///< server -> client: protocol-level failure, then close
};

/// REQUEST body: what to compute. Thresholds apply to sweep requests
/// only; figures always run the paper's threshold sweep so their output
/// stays byte-identical to the figure binaries.
struct SweepRequest {
  enum Kind : uint8_t { Figure = 1, Sweep = 2 };
  uint64_t Id = 0; ///< client-chosen; echoed in Progress/Result
  uint8_t RequestKind = Figure;
  std::string Name; ///< figure name (core::figureRegistry) or benchmark
  double Scale = 1.0;
  std::vector<uint64_t> Thresholds; ///< empty = paper defaults (sweep only)
  /// Approximate-replay fields (protocol v2, docs/PROTOCOL.md "Optional
  /// fields"): SampleMode 1 asks for the stratified sampled estimation at
  /// SampleBudgetPpm parts-per-million of each trace's segments, seeded by
  /// SampleSeed. Encoded on the wire only when SampleMode != 0 — plain
  /// requests stay byte-identical to v1. Sampling is request-scoped: the
  /// daemon's own TPDBT_SAMPLE_* environment never switches clients to
  /// estimates.
  uint8_t SampleMode = 0;
  uint64_t SampleBudgetPpm = 0;
  uint64_t SampleSeed = 0;

  bool sampled() const { return SampleMode != 0; }
};

/// The lowest frame version able to carry \p R (see the versioning rule
/// above): 2 when the sampled-replay fields are present, else 1.
inline uint8_t requestFrameVersion(const SweepRequest &R) {
  return R.sampled() ? 2 : 1;
}

/// RESULT status codes.
enum class Status : uint8_t {
  Ok = 0,
  BadRequest = 1,   ///< unknown figure/benchmark or invalid field
  Busy = 2,         ///< per-client queue depth exceeded; retry later
  ShuttingDown = 3, ///< daemon is stopping
  Internal = 4,     ///< computation failed server-side
};

/// RESULT body: terminal reply. Payload is the CSV table on Ok, a
/// human-readable message otherwise. Coalesced marks replies served by
/// fanning out another client's identical in-flight computation.
struct SweepResult {
  uint64_t Id = 0;
  Status ResultStatus = Status::Ok;
  bool Coalesced = false;
  std::string Payload;
};

/// PROGRESS body: a stage note ("queued", "building", ...).
struct ProgressMsg {
  uint64_t Id = 0;
  std::string Stage;
};

/// STATS body: ordered (name, value) counters. The empty list is the
/// client's request; the daemon replies with the populated list.
struct StatsMsg {
  std::vector<std::pair<std::string, uint64_t>> Counters;
};

/// ERROR body: a message; the server closes the connection after sending.
struct ErrorMsg {
  std::string Message;
};

/// Encodes a complete frame (length prefix + version + type + body).
/// \p Version defaults to v1; pass requestFrameVersion() for REQUEST
/// frames so plain requests keep working against old daemons.
std::string encodeFrame(MsgType Type, const std::string &Body,
                        uint8_t Version = MinProtocolVersion);

/// Body encoders.
std::string encodeRequest(const SweepRequest &R);
std::string encodeResult(const SweepResult &R);
std::string encodeProgress(const ProgressMsg &M);
std::string encodeStats(const StatsMsg &M);
std::string encodeError(const ErrorMsg &M);

/// Body decoders; false on truncation, bounds violations, or trailing
/// bytes.
bool decodeRequest(const std::string &Body, SweepRequest &Out);
bool decodeResult(const std::string &Body, SweepResult &Out);
bool decodeProgress(const std::string &Body, ProgressMsg &Out);
bool decodeStats(const std::string &Body, StatsMsg &Out);
bool decodeError(const std::string &Body, ErrorMsg &Out);

/// Reads one frame from \p Sock. False on EOF, a malformed length, a
/// version outside [MinProtocolVersion, ProtocolVersion], or an
/// oversized payload; \p Error explains which.
bool readFrame(UnixSocket &Sock, MsgType &Type, std::string &Body,
               std::string *Error);

/// Sends one frame; false when the peer is gone.
bool writeFrame(UnixSocket &Sock, MsgType Type, const std::string &Body,
                uint8_t Version = MinProtocolVersion);

} // namespace service
} // namespace tpdbt

#endif // TPDBT_SERVICE_PROTOCOL_H
