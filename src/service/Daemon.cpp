//===- service/Daemon.cpp - tpdbt-sweepd socket front end ------------------===//

#include "service/Daemon.h"

#include <cstdio>
#include <cstdlib>

using namespace tpdbt;
using namespace tpdbt::service;

DaemonOptions DaemonOptions::fromEnv() {
  DaemonOptions O;
  if (const char *Env = std::getenv("TPDBT_SWEEPD_SOCKET"))
    if (*Env)
      O.SocketPath = Env;
  O.Base = core::ExperimentConfig::fromEnv();
  O.Limits = ServiceLimits::fromEnv();
  return O;
}

Daemon::Daemon(DaemonOptions Opts)
    : Opts(std::move(Opts)), Service(this->Opts.Base, this->Opts.Limits) {}

Daemon::~Daemon() {
  requestStop();
  // run() joins its threads before returning; this covers the case where
  // start() succeeded but run() was never entered. Join outside ConnsLock:
  // a finishing connection thread takes it to close its socket.
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Guard(ConnsLock);
    ToJoin.swap(Threads);
  }
  for (std::thread &T : ToJoin)
    if (T.joinable())
      T.join();
}

bool Daemon::start(std::string *Error) {
  return UnixListener::listenOn(Opts.SocketPath, Listener, Error);
}

int Daemon::listenerFd() const { return Listener.fd(); }

void Daemon::run() {
  while (!Stopping.load(std::memory_order_acquire)) {
    UnixSocket Sock = Listener.accept();
    if (!Sock.valid())
      break; // shut down (or listener failure): stop serving
    auto Conn = std::make_shared<Connection>();
    Conn->Sock = std::move(Sock);
    std::lock_guard<std::mutex> Guard(ConnsLock);
    LiveConns.push_back(Conn);
    Threads.emplace_back([this, Conn] { serveConnection(Conn); });
  }
  // Stop: unblock every reader, then drain the connection threads.
  requestStop();
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Guard(ConnsLock);
    ToJoin.swap(Threads);
  }
  for (std::thread &T : ToJoin)
    T.join();
}

void Daemon::requestStop() {
  Stopping.store(true, std::memory_order_release);
  Listener.shutdownListener();
  std::lock_guard<std::mutex> Guard(ConnsLock);
  for (const std::weak_ptr<Connection> &W : LiveConns)
    if (auto Conn = W.lock())
      Conn->Sock.shutdownBoth();
}

bool Daemon::sendFrame(Connection &Conn, MsgType Type,
                       const std::string &Body) {
  std::lock_guard<std::mutex> Guard(Conn.WriteLock);
  return writeFrame(Conn.Sock, Type, Body);
}

void Daemon::handleRequest(std::shared_ptr<Connection> Conn,
                           SweepRequest R) {
  const uint64_t Id = R.Id;
  SweepService::Outcome Out = Service.run(R, [&](const std::string &Stage) {
    ProgressMsg P;
    P.Id = Id;
    P.Stage = Stage;
    sendFrame(*Conn, MsgType::Progress, encodeProgress(P));
  });
  SweepResult Reply;
  Reply.Id = Id;
  Reply.ResultStatus = Out.ResultStatus;
  Reply.Coalesced = Out.Coalesced;
  Reply.Payload = std::move(Out.Payload);
  {
    std::lock_guard<std::mutex> Guard(Conn->WriteLock);
    ++Conn->Served;
    if (Out.Coalesced)
      ++Conn->Deduped;
    if (Out.WasQueued)
      ++Conn->Queued;
    if (Out.ResultStatus == Status::BadRequest)
      ++Conn->Rejected;
    --Conn->Outstanding;
    writeFrame(Conn->Sock, MsgType::Result, encodeResult(Reply));
  }
  if (!Opts.Quiet)
    std::fprintf(stderr, "[tpdbt-sweepd] %s %s -> %s%s\n",
                 R.RequestKind == SweepRequest::Figure ? "figure" : "sweep",
                 R.Name.c_str(),
                 Reply.ResultStatus == Status::Ok ? "ok" : "error",
                 Reply.Coalesced ? " (coalesced)" : "");
}

void Daemon::serveConnection(std::shared_ptr<Connection> Conn) {
  std::vector<std::thread> Workers;
  auto DrainWorkers = [&] {
    for (std::thread &T : Workers)
      T.join();
    Workers.clear();
  };

  for (;;) {
    MsgType Type;
    std::string Body, Error;
    if (!readFrame(Conn->Sock, Type, Body, &Error)) {
      // EOF is the normal goodbye; anything else earns an ERROR frame
      // (best effort — the peer may already be gone).
      if (Error != "connection closed") {
        ErrorMsg E;
        E.Message = Error;
        sendFrame(*Conn, MsgType::Error, encodeError(E));
      }
      break;
    }

    if (Type == MsgType::Request) {
      SweepRequest R;
      if (!decodeRequest(Body, R)) {
        ErrorMsg E;
        E.Message = "malformed REQUEST body";
        sendFrame(*Conn, MsgType::Error, encodeError(E));
        break;
      }
      SweepResult Refuse;
      Refuse.Id = R.Id;
      if (Stopping.load(std::memory_order_acquire)) {
        Refuse.ResultStatus = Status::ShuttingDown;
        Refuse.Payload = "daemon is shutting down";
        sendFrame(*Conn, MsgType::Result, encodeResult(Refuse));
        continue;
      }
      bool Admit;
      {
        std::lock_guard<std::mutex> Guard(Conn->WriteLock);
        Admit = Conn->Outstanding < Opts.Limits.ClientDepth;
        if (Admit)
          ++Conn->Outstanding;
        else
          ++Conn->Rejected;
      }
      if (!Admit) {
        Refuse.ResultStatus = Status::Busy;
        Refuse.Payload = "per-client queue depth exceeded";
        sendFrame(*Conn, MsgType::Result, encodeResult(Refuse));
        continue;
      }
      Workers.emplace_back(
          [this, Conn, R = std::move(R)]() mutable { handleRequest(Conn, std::move(R)); });
      continue;
    }

    if (Type == MsgType::Stats) {
      StatsMsg M = Service.statsCounters();
      {
        std::lock_guard<std::mutex> Guard(Conn->WriteLock);
        M.Counters.emplace_back("client_served", Conn->Served);
        M.Counters.emplace_back("client_deduped", Conn->Deduped);
        M.Counters.emplace_back("client_queued", Conn->Queued);
        M.Counters.emplace_back("client_rejected", Conn->Rejected);
        M.Counters.emplace_back("client_outstanding", Conn->Outstanding);
      }
      sendFrame(*Conn, MsgType::Stats, encodeStats(M));
      continue;
    }

    if (Type == MsgType::Shutdown) {
      // Drain this client's pending requests so the ack is truly last,
      // ack, then stop the daemon.
      DrainWorkers();
      SweepResult Ack;
      Ack.Id = 0;
      Ack.ResultStatus = Status::Ok;
      Ack.Payload = "shutting down";
      sendFrame(*Conn, MsgType::Result, encodeResult(Ack));
      requestStop();
      break;
    }

    // Progress/Result/Error are server-to-client only.
    ErrorMsg E;
    E.Message = "unexpected message type from client";
    sendFrame(*Conn, MsgType::Error, encodeError(E));
    break;
  }

  DrainWorkers();
  // requestStop() shuts down every live socket under ConnsLock; closing
  // under the same lock keeps it from reading the fd mid-close, or after
  // the number has been recycled by an unrelated open().
  std::lock_guard<std::mutex> Guard(ConnsLock);
  Conn->Sock.close();
}
