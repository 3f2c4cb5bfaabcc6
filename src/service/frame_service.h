// Generic frame-serving front-end shared by the query server and the shard
// router.
//
// FrameService owns the network machinery of a length-prefixed-protocol
// endpoint: one epoll IO thread holding every socket (accept, frame
// reassembly, all writes), `num_workers` worker threads, and the BOUNDED
// admission queue between them — when the queue is full, the IO thread
// answers `overloaded` immediately instead of queuing, so queue depth (and
// with it tail latency) stays capped no matter the offered load.
//
// What a frame MEANS is delegated to a FrameHandler: ServiceServer runs
// QUERY frames on per-worker FLoS engines; ShardRouter forwards them to the
// owning shard process. QUERY and STATS frames ride the worker queue
// (STATS may gather remote state — the router fans out to its backends);
// SHUTDOWN and malformed frames are answered on the IO thread.

#ifndef FLOS_SERVICE_FRAME_SERVICE_H_
#define FLOS_SERVICE_FRAME_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/metrics.h"
#include "service/net_io.h"
#include "service/protocol.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace flos {

/// Network-side configuration of a frame endpoint (the meaning-side knobs —
/// max k, cache size, shard maps — live with the handler's owner).
struct FrameServiceOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with FrameService::port().
  uint16_t port = 0;
  /// Worker threads draining the admission queue.
  int num_workers = 4;
  /// Admission-control cap: frames waiting for a worker. Beyond this the
  /// IO thread answers `overloaded` without queuing.
  size_t max_queue_depth = 256;
  /// Frames larger than this are a protocol violation (connection closed).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Whether a SHUTDOWN frame from a client unblocks WaitForShutdown.
  bool allow_remote_shutdown = true;
};

/// Gives meaning to admitted frames. Implementations must stay alive for
/// the FrameService's lifetime and be callable from its worker threads.
class FrameHandler {
 public:
  /// Per-worker-thread state (an accessor + engine; the router's backend
  /// connections). Created on the worker thread itself, destroyed there.
  struct WorkerState {
    virtual ~WorkerState() = default;
  };

  virtual ~FrameHandler() = default;

  /// Called once per worker thread, on that thread, before it serves.
  virtual std::unique_ptr<WorkerState> CreateWorkerState() = 0;

  /// Serves one admitted QUERY payload. `dequeue_time` is the instant the
  /// worker picked the frame up — the anchor for relative deadlines.
  virtual QueryResponse HandleQuery(
      WorkerState* state, const std::string& payload,
      std::chrono::steady_clock::time_point dequeue_time) = 0;

  /// Serves one admitted STATS frame.
  virtual QueryResponse HandleStats(WorkerState* state) = 0;
};

/// The transport endpoint. Start() spawns the threads; Shutdown() (or the
/// destructor) joins them. `handler` and `metrics` must outlive the
/// service; the service records the transport-side metrics (connections,
/// admissions, queue depth/wait, total latency, malformed frames) and
/// leaves the handler-side counters to the handler.
class FrameService {
 public:
  FrameService(FrameServiceOptions options, FrameHandler* handler,
               ServiceMetrics* metrics);
  ~FrameService();

  FrameService(const FrameService&) = delete;
  FrameService& operator=(const FrameService&) = delete;

  /// Binds, listens, and spawns the IO + worker threads.
  Status Start();

  /// Port actually bound (valid after Start; resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// Blocks until a client sends SHUTDOWN or Shutdown() is called.
  void WaitForShutdown() FLOS_EXCLUDES(shutdown_mu_);

  /// Stops accepting, drains threads, closes every connection. Idempotent;
  /// safe to call whether or not Start succeeded.
  void Shutdown() FLOS_EXCLUDES(shutdown_mu_, queue_mu_);

 private:
  /// Per-connection state. The IO thread owns the socket and the read
  /// side; workers only append to `outbox` (under `out_mu`) and signal the
  /// wake fd. Held by shared_ptr so a worker finishing after a disconnect
  /// writes into a harmlessly orphaned buffer instead of a dangling one.
  struct Connection {
    UniqueFd fd;
    std::string inbuf;        // IO thread only
    Mutex out_mu;
    std::string outbox FLOS_GUARDED_BY(out_mu);
    bool epoll_out = false;   // IO thread only: EPOLLOUT currently armed
  };

  /// One admitted frame waiting for a worker.
  struct PendingFrame {
    std::shared_ptr<Connection> conn;
    MessageType type = MessageType::kQuery;
    std::string payload;
    std::chrono::steady_clock::time_point accept_time;
  };

  void IoLoop();
  void WorkerLoop();

  void AcceptAll();
  /// Reads, reassembles, and dispatches frames; false = close connection.
  bool HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Dispatches one complete frame payload; false = close connection.
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   std::string payload);
  /// Admission control for QUERY/STATS frames headed to the workers.
  void AdmitFrame(const std::shared_ptr<Connection>& conn, MessageType type,
                  std::string payload) FLOS_EXCLUDES(queue_mu_);

  /// Encodes `response` onto the connection's outbox. `from_io_thread`
  /// lets the IO thread flush immediately instead of signaling itself.
  void EnqueueResponse(const std::shared_ptr<Connection>& conn,
                       const QueryResponse& response, bool from_io_thread);
  /// Writes as much pending outbox as the kernel takes; arms/disarms
  /// EPOLLOUT accordingly. IO thread only. False = connection broken.
  bool FlushOutbox(const std::shared_ptr<Connection>& conn);
  void CloseConnection(int fd);

  FrameServiceOptions options_;
  FrameHandler* handler_;
  ServiceMetrics* metrics_;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::unique_ptr<Epoll> epoll_;
  std::unique_ptr<WakeFd> wake_;

  // IO-thread-only connection table.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  // Bounded request queue (admission control).
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<PendingFrame> queue_ FLOS_GUARDED_BY(queue_mu_);

  std::atomic<bool> stop_{false};
  bool started_ = false;  // Start/Shutdown controlling thread only
  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // WaitForShutdown plumbing.
  Mutex shutdown_mu_;
  CondVar shutdown_cv_;
  bool shutdown_requested_ FLOS_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace flos

#endif  // FLOS_SERVICE_FRAME_SERVICE_H_
