// The serving half of the benchmark: an in-process `pmafia serve` daemon,
// an open-loop query generator over a fixed number of connections, the
// `pmafia append` path run against the daemon's model file, and the
// capacity search over the fixed rate ladder.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/options.hpp"
#include "core/result.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

/// A daemon serving `model_path` on a Unix socket, its accept loop on a
/// thread of its own; stopped and joined on destruction.
class Daemon {
 public:
  Daemon(const std::string& model_path, const std::string& socket_path,
         std::size_t workers);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] mafia::serve::ServeServer& server() { return *server_; }
  [[nodiscard]] const std::string& endpoint() const { return server_->endpoint(); }

  /// Daemons in this process whose shutdown did not finish (see ~Daemon).
  [[nodiscard]] static int hung_shutdowns();

 private:
  std::unique_ptr<mafia::serve::ServeServer> server_;
  std::promise<void> served_;
  std::future<void> served_done_ = served_.get_future();
  std::thread accept_;
};

/// One request of an open-loop phase.
struct Sent {
  std::uint32_t batch = 0;  ///< index into the query pool
  double due = 0.0;
  double send = 0.0;
  double done = 0.0;
  bool ok = false;
  std::uint64_t labels_hash = 0;  ///< LabelsHash of the answer, for the parity check
};

/// Sends `count` batches from `pool` (cycling from `first_batch`) on the
/// schedule `sched`, one generator thread per connection; a thread takes the
/// next due request as soon as its connection is free.  A failed request is
/// recorded (ok = false) and its connection re-opened.  With `logs` non-null
/// each thread records a "serve.query" span per request in logs[thread].
[[nodiscard]] std::vector<Sent> run_open_loop(
    const std::string& endpoint,
    std::vector<std::unique_ptr<mafia::serve::ServeClient>>& clients,
    const std::vector<mafia::serve::QueryBatch>& pool, std::size_t first_batch,
    const Schedule& sched, std::size_t count, std::vector<SpanLog>* logs);

/// Request latencies (seconds from due time, +inf when failed) and send
/// lateness of a phase, in schedule order.
[[nodiscard]] std::vector<double> latencies_of(const std::vector<Sent>& sent);
[[nodiscard]] std::vector<double> lateness_of(const std::vector<Sent>& sent);

/// Result of the capacity search.
struct CapacityResult {
  double rps = 0.0;  ///< highest ladder rate met, 0 when none was
  struct Probe {
    double rate = 0.0;
    PhaseVerdict verdict;
  };
  std::vector<Probe> probes;         ///< every phase run, in order
  std::vector<Sent> sent;            ///< every request of every probe
};

/// Bisects the fixed rate ladder for the highest rate that meets `limit`.
/// A short closed-loop burst only picks where the search starts; a rung
/// that fails is retried once before it counts as missed.
[[nodiscard]] CapacityResult find_capacity(
    const std::string& endpoint,
    std::vector<std::unique_ptr<mafia::serve::ServeClient>>& clients,
    const std::vector<mafia::serve::QueryBatch>& pool, double limit);

/// One `pmafia append` cycle, run against the daemon.
struct AppendJob {
  mafia::MafiaOptions options;  ///< the base build's options
  std::string checkpoint_dir;
  std::string model_path;
  std::string batch_path;
};

struct AppendCycle {
  double ready = 0.0;             ///< the batch file's arrival time
  double reload_requested = 0.0;
  double reload_observed = 0.0;   ///< the daemon's reload counter moved
  mafia::MafiaResult result;      ///< the appended model's run
  bool ok = false;
  std::string error;
};

/// Runs the CLI's append path through the library (final checkpoint ->
/// provenance re-read -> run_pmafia in append mode on one rank, the CLI's
/// default -> atomic save), then
/// asks `daemon` to reload and waits until it has.  Spans (when `log` is
/// enabled): checkpoint.load, model.load, io.read, append.run, model.save,
/// serve.reload — all under one "append.cycle" span with id `cycle`.
[[nodiscard]] AppendCycle run_append_cycle(const AppendJob& job, Daemon& daemon,
                                           double ready, int cycle, SpanLog& log);

}  // namespace perfbench
