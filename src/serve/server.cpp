#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "cluster/membership.hpp"
#include "common/error.hpp"

namespace mafia::serve {

namespace {

/// Receive timeout on accepted connections: a client that stalls mid-frame
/// must not pin a worker forever (it would also wedge graceful shutdown).
constexpr int kIoTimeoutSeconds = 5;

/// Poll interval between frames; bounds how long a worker takes to notice
/// a stop request while a client holds an idle connection open.
constexpr int kIdlePollMs = 100;

[[nodiscard]] double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class ReadStatus {
  Ok,       ///< all bytes read
  Eof,      ///< clean close before the first byte (frame boundary)
  Partial,  ///< EOF, error, or timeout after some bytes — mid-frame loss
};

/// Full read distinguishing a clean frame-boundary EOF from a mid-frame
/// disconnect (the stats report counts the two differently).
ReadStatus read_exact(int fd, void* data, std::size_t bytes) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, p + got, bytes - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return got == 0 ? ReadStatus::Eof : ReadStatus::Partial;
    }
    if (n == 0) return got == 0 ? ReadStatus::Eof : ReadStatus::Partial;
    got += static_cast<std::size_t>(n);
  }
  return ReadStatus::Ok;
}

/// Full write with MSG_NOSIGNAL (a dead peer surfaces as an error return,
/// never SIGPIPE) — same convention as the process backend.
bool write_all(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_frame(int fd, std::uint32_t type, std::uint32_t aux,
                 const void* payload, std::size_t bytes) {
  FrameHeader h{type, aux, bytes};
  if (!write_all(fd, &h, sizeof(h))) return false;
  if (bytes > 0 && !write_all(fd, payload, bytes)) return false;
  return true;
}

/// Sends an error frame (aux = ErrorClass) and leaves the connection to be
/// closed by the caller; best-effort, the peer may already be gone.
void send_error(int fd, ErrorClass cls, const std::string& message) {
  write_frame(fd, kFrameError, static_cast<std::uint32_t>(cls),
              message.data(), message.size());
}

/// Consumes (bounded) the payload of a frame rejected from its header
/// alone.  Closing with the peer's payload still in flight would reset the
/// connection before the error frame arrives — the client would see EPIPE
/// instead of the explanation.  The bound keeps a hostile length prefix
/// from turning the courtesy drain into an unbounded read.
void drain_payload(int fd, std::uint64_t declared_len) {
  constexpr std::uint64_t kMaxDrain = 4u << 20;
  std::uint8_t buf[4096];
  std::uint64_t remaining = std::min(declared_len, kMaxDrain);
  while (remaining > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, sizeof(buf)));
    const ssize_t n = ::read(fd, buf, want);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    remaining -= static_cast<std::uint64_t>(n);
  }
}

void set_io_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kIoTimeoutSeconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

ServeServer::ServeServer(const ServeOptions& options)
    : options_(options),
      cache_(options.model_path, options.serve_threads) {
  options_.validate();

  int pipe_fds[2];
  require(::pipe2(pipe_fds, O_CLOEXEC) == 0,
          "serve: cannot create control pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  const std::string& spec = options_.listen;
  try {
    if (spec.rfind("tcp:", 0) == 0) {
      const std::string hostport = spec.substr(4);
      const std::size_t colon = hostport.rfind(':');
      require(colon != std::string::npos,
              "serve: tcp listen spec must be tcp:HOST:PORT, got " + spec);
      const std::string host = hostport.substr(0, colon);
      const std::string port_text = hostport.substr(colon + 1);
      char* end = nullptr;
      const long port = std::strtol(port_text.c_str(), &end, 10);
      require(end == port_text.c_str() + port_text.size() && port >= 0 &&
                  port <= 65535,
              "serve: bad tcp port '" + port_text + "'");

      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
              "serve: bad tcp host '" + host + "' (IPv4 literal required)");

      listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (listen_fd_ < 0) {
        throw ResourceError("serve: cannot create tcp socket");
      }
      const int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw ResourceError("serve: cannot bind " + spec + ": " +
                            std::strerror(errno));
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
      endpoint_ =
          "tcp:" + host + ":" + std::to_string(ntohs(bound.sin_port));
    } else {
      unix_path_ = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
      is_unix_ = true;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      require(unix_path_.size() < sizeof(addr.sun_path),
              "serve: unix socket path too long: " + unix_path_);
      std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size() + 1);

      listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (listen_fd_ < 0) {
        throw ResourceError("serve: cannot create unix socket");
      }
      // A previous daemon SIGKILLed mid-query leaves the path behind;
      // restart-on-the-same-path must always work, so take it over.
      ::unlink(unix_path_.c_str());
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw ResourceError("serve: cannot bind " + unix_path_ + ": " +
                            std::strerror(errno));
      }
      endpoint_ = "unix:" + unix_path_;
    }
    if (::listen(listen_fd_, 128) != 0) {
      throw ResourceError("serve: listen failed on " + endpoint_ + ": " +
                          std::strerror(errno));
    }
  } catch (...) {
    close_quietly(listen_fd_);
    close_quietly(wake_read_fd_);
    close_quietly(wake_write_fd_);
    throw;
  }

  worker_stats_.resize(options_.serve_threads);
  for (auto& s : worker_stats_) s = std::make_unique<WorkerStats>();
}

ServeServer::~ServeServer() {
  close_quietly(listen_fd_);
  close_quietly(wake_read_fd_);
  close_quietly(wake_write_fd_);
  if (is_unix_ && !unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void ServeServer::stop() {
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void ServeServer::request_reload() {
  const char byte = 'r';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void ServeServer::serve() {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    start_seconds_ = now_seconds();
  }
  workers_.reserve(options_.serve_threads);
  for (std::size_t i = 0; i < options_.serve_threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }

  accept_loop();

  // Drain: workers finish (and answer) the frame in flight, then exit;
  // connections still queued are closed unanswered below.  The flag is set
  // under the queue mutex: a worker that has checked the wait predicate
  // but not yet blocked would otherwise miss the notify and sleep forever.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_.store(true);
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const int fd : pending_) close_quietly(fd);
    pending_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    stop_seconds_ = now_seconds();
  }
}

void ServeServer::drain_wake_pipe(bool& want_stop, bool& want_reload) {
  char buf[64];
  const ssize_t n = ::read(wake_read_fd_, buf, sizeof(buf));
  for (ssize_t i = 0; i < n; ++i) {
    if (buf[i] == 'q') want_stop = true;
    if (buf[i] == 'r') want_reload = true;
  }
}

void ServeServer::accept_loop() {
  pollfd fds[2];
  fds[0] = {listen_fd_, POLLIN, 0};
  fds[1] = {wake_read_fd_, POLLIN, 0};
  while (true) {
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      bool want_stop = false;
      bool want_reload = false;
      drain_wake_pipe(want_stop, want_reload);
      if (want_reload) {
        try {
          cache_.reload();
          std::lock_guard<std::mutex> lock(control_mutex_);
          ++model_reloads_;
        } catch (const Error&) {
          // The old model stays live; the failure is visible in the stats.
          std::lock_guard<std::mutex> lock(control_mutex_);
          ++reload_failures_;
        }
      }
      if (want_stop) return;
    }
    if (fds[0].revents != 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      set_io_timeouts(fd);
      {
        std::lock_guard<std::mutex> lock(control_mutex_);
        ++connections_;
      }
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        pending_.push_back(fd);
      }
      queue_cv_.notify_one();
    }
  }
}

void ServeServer::worker_main(std::size_t worker_id) {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stop_.load() || !pending_.empty(); });
      if (pending_.empty()) return;  // stop requested, queue drained
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd, worker_id);
    close_quietly(fd);
  }
}

void ServeServer::handle_connection(int fd, std::size_t worker_id) {
  WorkerStats& stats = *worker_stats_[worker_id];
  while (true) {
    // Between frames, poll with a short timeout so a stop request is
    // noticed even while a client keeps an idle connection open.
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kIdlePollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (rc == 0) {
      if (stop_.load()) return;
      continue;
    }

    FrameHeader header;
    const ReadStatus hs = read_exact(fd, &header, sizeof(header));
    if (hs == ReadStatus::Eof) return;  // clean close between frames
    if (hs == ReadStatus::Partial) {
      std::lock_guard<std::mutex> lock(stats.mutex);
      ++stats.midframe_disconnects;
      return;
    }

    if (header.type == kFrameStats) {
      if (header.len != 0) {
        {
          std::lock_guard<std::mutex> lock(stats.mutex);
          ++stats.rejected_frames;
        }
        drain_payload(fd, header.len);
        send_error(fd, ErrorClass::Usage, "serve: stats frame takes no payload");
        return;
      }
      const std::string json = render_serve_report_json(snapshot());
      if (!write_frame(fd, kFrameStatsReply, 0, json.data(), json.size())) {
        std::lock_guard<std::mutex> lock(stats.mutex);
        ++stats.midframe_disconnects;
        return;
      }
      continue;
    }

    if (header.type != kFrameQuery) {
      {
        std::lock_guard<std::mutex> lock(stats.mutex);
        ++stats.rejected_frames;
      }
      drain_payload(fd, header.len);
      send_error(fd, ErrorClass::Usage,
                 "serve: unknown frame type " + std::to_string(header.type));
      return;
    }
    if (header.aux != kProtocolVersion) {
      {
        std::lock_guard<std::mutex> lock(stats.mutex);
        ++stats.rejected_frames;
      }
      drain_payload(fd, header.len);
      send_error(fd, ErrorClass::Usage,
                 "serve: unsupported protocol version " +
                     std::to_string(header.aux));
      return;
    }

    // Pin one model snapshot for the whole batch: admission, decode, and
    // answers all see the same generation even mid-reload.
    const std::shared_ptr<const Model> model = cache_.acquire(worker_id);
    const auto model_dims =
        static_cast<std::uint32_t>(model->grids.num_dims());

    // Admission on the DECLARED length, before any allocation: a hostile
    // length prefix is bounded by the largest well-formed query.
    const std::uint64_t max_len =
        query_payload_bytes(options_.max_batch, model_dims);
    if (header.len > max_len) {
      {
        std::lock_guard<std::mutex> lock(stats.mutex);
        ++stats.oversized_batches;
      }
      drain_payload(fd, header.len);
      send_error(fd, ErrorClass::Usage,
                 "serve: frame of " + std::to_string(header.len) +
                     " bytes exceeds the --max-batch " +
                     std::to_string(options_.max_batch) + " limit of " +
                     std::to_string(max_len));
      return;
    }

    std::vector<std::uint8_t> payload(static_cast<std::size_t>(header.len));
    if (header.len > 0) {
      const ReadStatus ps = read_exact(fd, payload.data(), payload.size());
      if (ps != ReadStatus::Ok) {
        std::lock_guard<std::mutex> lock(stats.mutex);
        ++stats.midframe_disconnects;
        return;
      }
    }

    const double t0 = now_seconds();
    QueryBatch batch;
    try {
      batch = decode_query(payload.data(), payload.size(),
                           options_.max_batch, model_dims);
    } catch (const Error& e) {
      const bool oversized =
          payload.size() >= sizeof(std::uint32_t) &&
          [&] {
            std::uint32_t declared_rows = 0;
            std::memcpy(&declared_rows, payload.data(), sizeof(declared_rows));
            return declared_rows > options_.max_batch;
          }();
      {
        std::lock_guard<std::mutex> lock(stats.mutex);
        if (oversized) {
          ++stats.oversized_batches;
        } else {
          ++stats.rejected_frames;
        }
      }
      send_error(fd, e.error_class(), e.what());
      return;
    }

    const std::vector<RowAnswer> answers =
        answer_batch(*model, batch, stats);
    const std::vector<std::uint8_t> response = encode_response(answers);
    if (!write_frame(fd, kFrameResponse, 0, response.data(),
                     response.size())) {
      std::lock_guard<std::mutex> lock(stats.mutex);
      ++stats.midframe_disconnects;
      return;
    }
    const double elapsed = now_seconds() - t0;
    std::uint64_t noise = 0;
    for (const RowAnswer& a : answers) noise += a.label == kNoiseLabel ? 1 : 0;
    {
      std::lock_guard<std::mutex> lock(stats.mutex);
      ++stats.batches;
      stats.rows += answers.size();
      stats.noise_rows += noise;
      stats.latency.record(elapsed);
    }
  }
}

std::vector<RowAnswer> ServeServer::answer_batch(const Model& model,
                                                 const QueryBatch& batch,
                                                 WorkerStats&) const {
  std::vector<RowAnswer> answers(batch.num_rows());
  const std::size_t d = batch.num_dims;
  for (std::size_t r = 0; r < answers.size(); ++r) {
    const Value* row = batch.values.data() + r * d;
    RowAnswer& a = answers[r];
    // First match in cluster order IS the label — the same walk as
    // assign_members, so wire labels are bit-identical to the offline
    // path; match_count keeps scanning to report overlap.
    for (std::size_t c = 0; c < model.clusters.size(); ++c) {
      if (contains_record(model.clusters[c], model.grids, row)) {
        if (a.match_count == 0) a.label = static_cast<std::int32_t>(c);
        ++a.match_count;
      }
    }
  }
  return answers;
}

ServeReport ServeServer::snapshot() const {
  ServeReport report;
  report.listen = endpoint_;
  report.model_path = options_.model_path;
  {
    const std::shared_ptr<const Model> model = cache_.acquire(0);
    report.num_dims = model->grids.num_dims();
    report.num_clusters = model->clusters.size();
  }
  report.serve_threads = options_.serve_threads;
  report.max_batch = options_.max_batch;

  LatencyHistogram merged;
  for (const auto& shard : worker_stats_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    report.batches += shard->batches;
    report.rows += shard->rows;
    report.noise_rows += shard->noise_rows;
    report.rejected_frames += shard->rejected_frames;
    report.oversized_batches += shard->oversized_batches;
    report.midframe_disconnects += shard->midframe_disconnects;
    merged.merge(shard->latency);
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    report.connections = connections_;
    report.model_reloads = model_reloads_;
    report.reload_failures = reload_failures_;
    if (start_seconds_ > 0.0) {
      const double end = stop_seconds_ > 0.0 ? stop_seconds_ : now_seconds();
      report.elapsed_seconds = end - start_seconds_;
    }
  }
  if (report.elapsed_seconds > 0.0) {
    report.queries_per_second =
        static_cast<double>(report.rows) / report.elapsed_seconds;
    report.batches_per_second =
        static_cast<double>(report.batches) / report.elapsed_seconds;
  }
  report.latency = merged.digest_ms();
  return report;
}

}  // namespace mafia::serve
