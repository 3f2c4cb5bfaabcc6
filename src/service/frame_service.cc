#include "service/frame_service.h"

#include <cstdio>
#include <cstring>
#include <utility>

namespace flos {

namespace {

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count();
  return us > 0 ? static_cast<uint64_t>(us) : 0;
}

}  // namespace

FrameService::FrameService(FrameServiceOptions options, FrameHandler* handler,
                           ServiceMetrics* metrics)
    : options_(std::move(options)), handler_(handler), metrics_(metrics) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_queue_depth < 1) options_.max_queue_depth = 1;
}

FrameService::~FrameService() { Shutdown(); }

Status FrameService::Start() {
  if (started_) {
    return Status::FailedPrecondition("FrameService::Start called twice");
  }
  FLOS_ASSIGN_OR_RETURN(listen_fd_,
                        ListenTcp(options_.host, options_.port, 128));
  FLOS_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
  FLOS_ASSIGN_OR_RETURN(Epoll ep, Epoll::Create());
  epoll_ = std::make_unique<Epoll>(std::move(ep));
  FLOS_ASSIGN_OR_RETURN(WakeFd wake, WakeFd::Create());
  wake_ = std::make_unique<WakeFd>(std::move(wake));
  FLOS_RETURN_IF_ERROR(epoll_->Add(listen_fd_.get(), /*want_read=*/true,
                                   /*want_write=*/false));
  FLOS_RETURN_IF_ERROR(
      epoll_->Add(wake_->fd(), /*want_read=*/true, /*want_write=*/false));

  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  io_thread_ = std::thread([this] { IoLoop(); });
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void FrameService::WaitForShutdown() {
  MutexLock lock(shutdown_mu_);
  while (!shutdown_requested_ && !stop_.load(std::memory_order_relaxed)) {
    shutdown_cv_.Wait(shutdown_mu_);
  }
}

void FrameService::Shutdown() {
  if (!started_) return;
  started_ = false;
  stop_.store(true, std::memory_order_relaxed);
  {
    MutexLock lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.NotifyAll();
  queue_cv_.NotifyAll();
  if (wake_ != nullptr) wake_->Signal();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (io_thread_.joinable()) io_thread_.join();
  connections_.clear();
  {
    MutexLock lock(queue_mu_);
    queue_.clear();
    metrics_->queue_depth.Set(0);
  }
  epoll_.reset();
  wake_.reset();
  listen_fd_.Close();
}

void FrameService::IoLoop() {
  std::vector<EpollEvent> events;
  while (!stop_.load(std::memory_order_relaxed)) {
    const Status waited = epoll_->Wait(/*timeout_ms=*/200, &events);
    if (!waited.ok()) {
      std::fprintf(stderr, "flos service: epoll wait failed: %s\n",
                   waited.ToString().c_str());
      break;
    }
    // A worker may have enqueued output for any connection; level-triggered
    // EPOLLOUT is only armed lazily here, so sweep every wakeup.
    if (stop_.load(std::memory_order_relaxed)) break;
    for (const EpollEvent& ev : events) {
      if (ev.fd == wake_->fd()) {
        wake_->Drain();
        continue;
      }
      if (ev.fd == listen_fd_.get()) {
        AcceptAll();
        continue;
      }
      const auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      bool alive = !ev.error;
      if (alive && ev.readable) alive = HandleReadable(conn);
      if (alive && ev.writable) alive = FlushOutbox(conn);
      if (!alive) CloseConnection(ev.fd);
    }
    // Arm EPOLLOUT for connections the workers filled since last pass.
    for (auto it = connections_.begin(); it != connections_.end();) {
      const std::shared_ptr<Connection>& conn = it->second;
      const int fd = conn->fd.get();
      ++it;  // FlushOutbox may CloseConnection(fd) and invalidate `it`
      bool pending = false;
      {
        MutexLock lock(conn->out_mu);
        pending = !conn->outbox.empty();
      }
      if (pending && !FlushOutbox(conn)) CloseConnection(fd);
    }
  }
  // Drop every connection on the way out so clients see EOF promptly.
  for (auto& [fd, conn] : connections_) {
    (void)conn;
    (void)epoll_->Remove(fd);
  }
  connections_.clear();
}

void FrameService::AcceptAll() {
  while (true) {
    Result<UniqueFd> accepted = AcceptConnection(listen_fd_.get());
    if (!accepted.ok()) {
      std::fprintf(stderr, "flos service: accept failed: %s\n",
                   accepted.status().ToString().c_str());
      return;
    }
    if (!accepted->valid()) return;  // EAGAIN: drained the backlog
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(*accepted);
    const int fd = conn->fd.get();
    const Status added =
        epoll_->Add(fd, /*want_read=*/true, /*want_write=*/false);
    if (!added.ok()) {
      std::fprintf(stderr, "flos service: epoll add failed: %s\n",
                   added.ToString().c_str());
      continue;  // conn drops here, closing the socket
    }
    connections_.emplace(fd, std::move(conn));
    metrics_->connections_opened.Increment();
    metrics_->active_connections.Add(1);
  }
}

bool FrameService::HandleReadable(const std::shared_ptr<Connection>& conn) {
  bool eof = false;
  const Status received =
      RecvSome(conn->fd.get(), 64 * 1024, &conn->inbuf, &eof);
  if (!received.ok()) return false;
  // Reassemble complete frames; track a consumed offset so pipelined
  // bursts erase the buffer prefix once instead of per frame.
  size_t consumed = 0;
  bool alive = true;
  while (alive) {
    if (conn->inbuf.size() - consumed < kFrameHeaderBytes) break;
    uint32_t frame_len = 0;
    std::memcpy(&frame_len, conn->inbuf.data() + consumed,
                sizeof(frame_len));
    if (frame_len > options_.max_frame_bytes) {
      // Cannot resynchronize framing after an oversized length; drop the
      // connection.
      metrics_->requests_malformed.Increment();
      alive = false;
      break;
    }
    if (conn->inbuf.size() - consumed < kFrameHeaderBytes + frame_len) break;
    std::string payload = conn->inbuf.substr(
        consumed + kFrameHeaderBytes, frame_len);
    consumed += kFrameHeaderBytes + frame_len;
    alive = HandleFrame(conn, std::move(payload));
  }
  if (consumed > 0) conn->inbuf.erase(0, consumed);
  if (alive && eof) {
    // Peer finished sending. Keep the connection only while responses for
    // already-admitted work may still arrive; simplest correct policy:
    // close once the outbox drains. Workers holding the shared_ptr write
    // into an orphaned buffer, which is safe.
    MutexLock lock(conn->out_mu);
    if (conn->outbox.empty()) alive = false;
  }
  return alive;
}

bool FrameService::HandleFrame(const std::shared_ptr<Connection>& conn,
                               std::string payload) {
  const Result<MessageType> type = PeekMessageType(payload);
  if (!type.ok()) {
    metrics_->requests_malformed.Increment();
    EnqueueResponse(conn,
                    MakeErrorResponse(MessageType::kQuery, type.status()),
                    /*from_io_thread=*/true);
    return true;  // framing is intact; the connection can continue
  }
  switch (*type) {
    case MessageType::kQuery:
      AdmitFrame(conn, MessageType::kQuery, std::move(payload));
      return true;
    case MessageType::kStats:
      metrics_->stats_requests.Increment();
      AdmitFrame(conn, MessageType::kStats, std::move(payload));
      return true;
    case MessageType::kShutdown: {
      if (!options_.allow_remote_shutdown) {
        EnqueueResponse(
            conn,
            MakeErrorResponse(MessageType::kShutdown,
                              Status::FailedPrecondition(
                                  "remote shutdown is disabled")),
            /*from_io_thread=*/true);
        return true;
      }
      QueryResponse resp;
      resp.type = MessageType::kShutdown;
      resp.status = StatusCode::kOk;
      EnqueueResponse(conn, resp, /*from_io_thread=*/true);
      {
        MutexLock lock(shutdown_mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.NotifyAll();
      return true;
    }
  }
  return true;
}

void FrameService::AdmitFrame(const std::shared_ptr<Connection>& conn,
                              MessageType type, std::string payload) {
  PendingFrame work;
  work.conn = conn;
  work.type = type;
  work.payload = std::move(payload);
  work.accept_time = std::chrono::steady_clock::now();
  bool admitted = false;
  {
    MutexLock lock(queue_mu_);
    if (queue_.size() < options_.max_queue_depth) {
      queue_.push_back(std::move(work));
      metrics_->queue_depth.Set(static_cast<int64_t>(queue_.size()));
      admitted = true;
    }
  }
  if (admitted) {
    if (type == MessageType::kQuery) metrics_->requests_accepted.Increment();
    queue_cv_.NotifyOne();
  } else {
    metrics_->requests_rejected_overload.Increment();
    EnqueueResponse(
        conn,
        MakeErrorResponse(type,
                          Status::Overloaded(
                              "request queue full; back off and retry")),
        /*from_io_thread=*/true);
  }
}

void FrameService::WorkerLoop() {
  const std::unique_ptr<FrameHandler::WorkerState> state =
      handler_->CreateWorkerState();
  while (true) {
    PendingFrame work;
    {
      MutexLock lock(queue_mu_);
      while (!stop_.load(std::memory_order_relaxed) && queue_.empty()) {
        queue_cv_.Wait(queue_mu_);
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      work = std::move(queue_.front());
      queue_.pop_front();
      metrics_->queue_depth.Set(static_cast<int64_t>(queue_.size()));
    }
    if (work.type == MessageType::kQuery) {
      const auto dequeue_time = std::chrono::steady_clock::now();
      metrics_->queue_wait_us.Record(
          MicrosBetween(work.accept_time, dequeue_time));
      const QueryResponse resp =
          handler_->HandleQuery(state.get(), work.payload, dequeue_time);
      EnqueueResponse(work.conn, resp, /*from_io_thread=*/false);
      metrics_->total_us.Record(MicrosBetween(
          work.accept_time, std::chrono::steady_clock::now()));
    } else {
      EnqueueResponse(work.conn, handler_->HandleStats(state.get()),
                      /*from_io_thread=*/false);
    }
  }
}

void FrameService::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                                   const QueryResponse& response,
                                   bool from_io_thread) {
  {
    MutexLock lock(conn->out_mu);
    EncodeResponse(response, &conn->outbox);
  }
  if (from_io_thread) {
    if (!FlushOutbox(conn)) CloseConnection(conn->fd.get());
  } else {
    wake_->Signal();
  }
}

bool FrameService::FlushOutbox(const std::shared_ptr<Connection>& conn) {
  MutexLock lock(conn->out_mu);
  if (!conn->outbox.empty()) {
    size_t written = 0;
    const Status sent = SendSome(conn->fd.get(), conn->outbox.data(),
                                 conn->outbox.size(), &written);
    if (!sent.ok()) return false;
    if (written > 0) conn->outbox.erase(0, written);
  }
  const bool want_write = !conn->outbox.empty();
  if (want_write != conn->epoll_out) {
    const Status modified =
        epoll_->Modify(conn->fd.get(), /*want_read=*/true, want_write);
    if (!modified.ok()) return false;
    conn->epoll_out = want_write;
  }
  return true;
}

void FrameService::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  (void)epoll_->Remove(fd);
  connections_.erase(it);
  metrics_->connections_closed.Increment();
  metrics_->active_connections.Add(-1);
}

}  // namespace flos
