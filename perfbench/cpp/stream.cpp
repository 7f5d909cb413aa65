#include "stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/mafia.hpp"
#include "core/model_io.hpp"
#include "io/data_source.hpp"
#include "io/record_file.hpp"

namespace perfbench {

using namespace mafia;

namespace {

ServeOptions daemon_options(const std::string& model_path,
                            const std::string& socket_path, std::size_t workers) {
  ServeOptions o;
  o.model_path = model_path;
  o.listen = "unix:" + socket_path;
  o.serve_threads = workers;
  return o;
}

/// Sleeps most of the way to `t`, then yields until it arrives, so sends
/// leave within a few microseconds of their due time without spinning a
/// core between requests.
void wait_until(double t) {
  for (;;) {
    const double left = t - now();
    if (left <= 0.0) return;
    if (left > 300e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 200e-6));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Back-to-back requests on every connection for `seconds`: only used to
/// pick where the capacity search starts.
double closed_loop_rate(const std::string& endpoint,
                        std::vector<std::unique_ptr<serve::ServeClient>>& clients,
                        const std::vector<serve::QueryBatch>& pool, double seconds) {
  std::atomic<std::size_t> done{0};
  const double start = now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < clients.size(); ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t j = t; now() - start < seconds; j += clients.size()) {
          try {
            if (!clients[t]) clients[t] = std::make_unique<serve::ServeClient>(endpoint);
            (void)clients[t]->query(pool[j % pool.size()]);
            done.fetch_add(1);
          } catch (const std::exception&) {
            clients[t].reset();
          }
        }
      });
    }
  }
  return static_cast<double>(done.load()) / (now() - start);
}

}  // namespace

namespace {
std::atomic<int> g_hung_shutdowns{0};
}  // namespace

Daemon::Daemon(const std::string& model_path, const std::string& socket_path,
               std::size_t workers)
    : server_(std::make_unique<serve::ServeServer>(
          daemon_options(model_path, socket_path, workers))) {
  accept_ = std::thread([this] {
    try {
      server_->serve();
    } catch (const std::exception&) {
      // The daemon died; every later request fails and is counted so.
    }
    served_.set_value();
  });
}

Daemon::~Daemon() {
  // ServeServer::serve() raises its stop flag without holding the queue
  // mutex, so a worker caught between its wait predicate and the wait
  // misses the shutdown notify and never exits.  Workers are only there
  // right after a connection closes, so let them settle before stopping;
  // should the daemon still hang, count it and leave its blocked threads
  // (and the server they use) to process exit rather than hang the run.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server_->stop();
  if (served_done_.wait_for(std::chrono::seconds(20)) == std::future_status::ready) {
    accept_.join();
  } else {
    g_hung_shutdowns.fetch_add(1);
    accept_.detach();
    (void)server_.release();
  }
}

int Daemon::hung_shutdowns() { return g_hung_shutdowns.load(); }

std::vector<Sent> run_open_loop(
    const std::string& endpoint,
    std::vector<std::unique_ptr<serve::ServeClient>>& clients,
    const std::vector<serve::QueryBatch>& pool, std::size_t first_batch,
    const Schedule& sched, std::size_t count, std::vector<SpanLog>* logs) {
  std::vector<Sent> out(count);
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < clients.size(); ++t) {
      threads.emplace_back([&, t] {
        SpanLog* log = logs != nullptr ? &(*logs)[t] : nullptr;
        for (;;) {
          const std::size_t j = next.fetch_add(1);
          if (j >= count) return;
          Sent& s = out[j];
          s.batch = static_cast<std::uint32_t>((first_batch + j) % pool.size());
          s.due = sched.due(j);
          wait_until(s.due);
          const std::int64_t span =
              log != nullptr ? log->open("serve.query", static_cast<std::int64_t>(j)) : -1;
          s.send = now();
          try {
            if (!clients[t]) clients[t] = std::make_unique<serve::ServeClient>(endpoint);
            const std::vector<serve::RowAnswer> answers = clients[t]->query(pool[s.batch]);
            LabelsHash h;
            for (const serve::RowAnswer& a : answers) h.add(a.label);
            s.labels_hash = h.value;
            s.ok = true;
          } catch (const std::exception&) {
            clients[t].reset();  // re-open on the next request
          }
          s.done = now();
          if (log != nullptr) log->close(span);
        }
      });
    }
  }
  return out;
}

std::vector<double> latencies_of(const std::vector<Sent>& sent) {
  std::vector<double> out;
  out.reserve(sent.size());
  for (const Sent& s : sent) out.push_back(latency_from_due(s.due, s.done, s.ok));
  return out;
}

std::vector<double> lateness_of(const std::vector<Sent>& sent) {
  std::vector<double> out;
  out.reserve(sent.size());
  for (const Sent& s : sent) out.push_back(s.send - s.due);
  return out;
}

CapacityResult find_capacity(
    const std::string& endpoint,
    std::vector<std::unique_ptr<serve::ServeClient>>& clients,
    const std::vector<serve::QueryBatch>& pool, double limit) {
  // A probe sends enough requests for a p99 with ten samples beyond it, and
  // runs at least kProbeSeconds so a growing backlog has time to show.
  constexpr std::size_t kProbeRequests = 1100;
  constexpr double kProbeSeconds = 0.5;
  constexpr int kJump = 14;  // rungs per widening step, about 2x in rate
  CapacityResult cap;
  const auto probe = [&](int rung) {
    const double rate = RateLadder::rate(rung);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto n = std::max<std::size_t>(
          kProbeRequests, static_cast<std::size_t>(std::ceil(rate * kProbeSeconds)));
      const Schedule sched{now() + 0.002, rate};
      std::vector<Sent> sent =
          run_open_loop(endpoint, clients, pool, cap.sent.size(), sched, n, nullptr);
      const PhaseVerdict v = judge_phase(latencies_of(sent), lateness_of(sent), limit);
      cap.probes.push_back({rate, v});
      std::move(sent.begin(), sent.end(), std::back_inserter(cap.sent));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let queues drain
      if (v.meets) return true;
    }
    return false;
  };

  const double estimate = closed_loop_rate(endpoint, clients, pool, 0.25);
  int lo = RateLadder::rung_at_or_below(estimate * 0.7);
  int hi = std::min(RateLadder::kRungs - 1, RateLadder::rung_at_or_below(estimate * 1.2) + 1);
  bool hi_failed = false;
  while (!probe(lo)) {
    hi = lo;
    hi_failed = true;
    if (lo == 0) return cap;  // not even the lowest rate is met
    lo = std::max(0, lo - kJump);
  }
  while (!hi_failed) {
    if (hi <= lo) hi = std::min(RateLadder::kRungs - 1, lo + 1);
    if (probe(hi)) {
      lo = hi;
      if (hi == RateLadder::kRungs - 1) break;
      hi = std::min(RateLadder::kRungs - 1, hi + kJump);
    } else {
      hi_failed = true;
    }
  }
  while (hi_failed && hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  cap.rps = RateLadder::rate(lo);
  return cap;
}

AppendCycle run_append_cycle(const AppendJob& job, Daemon& daemon, double ready,
                             int cycle, SpanLog& log) {
  AppendCycle c;
  c.ready = ready;
  SpanLog::Scope cycle_span(log, "append.cycle", cycle);
  try {
    // The CLI's `pmafia append` path, call for call.
    MafiaOptions o = job.options;
    o.checkpoint.directory = job.checkpoint_dir;
    CheckpointScan scan;
    {
      SpanLog::Scope span(log, "checkpoint.load", cycle);
      scan = load_final_checkpoint(job.checkpoint_dir, /*fingerprint=*/0);
    }
    if (!scan.state || scan.state->provenance.empty()) {
      throw std::runtime_error("append: no final checkpoint with provenance");
    }
    const CheckpointState& state = *scan.state;
    {
      SpanLog::Scope span(log, "model.load", cycle);
      const Model model = load_model(job.model_path);
      if (model.grids.num_dims() != state.num_dims) {
        throw std::runtime_error("append: model and checkpoint disagree on dims");
      }
    }
    Dataset data;
    Dataset batch;
    {
      SpanLog::Scope span(log, "io.read", cycle);
      data = read_record_file(state.provenance[0].path);
      for (std::size_t s = 1; s < state.provenance.size(); ++s) {
        data.append_rows(read_record_file(state.provenance[s].path));
      }
      batch = read_record_file(job.batch_path);
    }
    if (static_cast<std::uint64_t>(data.num_records()) != state.num_records ||
        batch.num_dims() != data.num_dims()) {
      throw std::runtime_error("append: base data does not match the checkpoint");
    }
    data.append_rows(batch);
    o.append = AppendConfig{state.num_records};
    for (const DataSegment& seg : state.provenance) {
      o.checkpoint.provenance.emplace_back(seg.path, seg.records);
    }
    o.checkpoint.provenance.emplace_back(
        job.batch_path, static_cast<std::uint64_t>(batch.num_records()));
    {
      SpanLog::Scope span(log, "append.run", cycle);
      const InMemorySource source(data);
      c.result = run_pmafia(source, o, 1);
    }
    {
      SpanLog::Scope span(log, "model.save", cycle);
      save_model(job.model_path, c.result.grids, c.result.clusters);
    }
    {
      SpanLog::Scope span(log, "serve.reload", cycle);
      serve::ServeServer& server = daemon.server();
      const ServeReport before = server.snapshot();
      c.reload_requested = now();
      server.request_reload();
      for (;;) {
        const ServeReport snap = server.snapshot();
        if (snap.model_reloads > before.model_reloads) break;
        if (snap.reload_failures > before.reload_failures) {
          throw std::runtime_error("append: the daemon failed to reload the model");
        }
        if (now() - c.reload_requested > 30.0) {
          throw std::runtime_error("append: the daemon did not reload within 30 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      c.reload_observed = now();
    }
    c.ok = true;
  } catch (const std::exception& e) {
    c.error = e.what();
  }
  return c;
}

}  // namespace perfbench
