#include "io/pipeline.hpp"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/timer.hpp"

namespace mafia {

namespace {

/// Private unwind signal: thrown inside the producer's chunk callback to
/// escape the inner source's scan loop when the consumer cancels.  Never
/// crosses the pipeline boundary.
struct ProducerCancelled {};

/// The bounded chunk-buffer ring one pipelined scan runs on.  Slots cycle
/// through free -> filling -> full -> consuming -> free; `head` counts
/// chunks produced, `tail` chunks consumed, and the FIFO order of both
/// cursors is what preserves the synchronous chunk sequence.
class ChunkRing {
 public:
  ChunkRing(std::size_t buffers, std::size_t chunk_values)
      : slots_(buffers) {
    for (Slot& s : slots_) s.values.resize(chunk_values);
  }

  /// Producer: blocks until a free slot is available (or the consumer
  /// cancelled), copies the chunk in, and publishes it.  Returns the
  /// seconds spent blocked on a full ring, so the producer can subtract
  /// consumer-induced backpressure from its read time.
  double produce(const Value* rows, std::size_t nrows, std::size_t num_dims) {
    Slot& slot = slots_[head_ % slots_.size()];
    double blocked = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (head_ - tail_ >= slots_.size() && !cancelled_) {
        const Timer wait;
        not_full_.wait(lock, [&] { return head_ - tail_ < slots_.size() || cancelled_; });
        blocked = wait.seconds();
      }
      if (cancelled_) throw ProducerCancelled{};
    }
    // The slot is provably quiescent here: head - tail < size means the
    // consumer has moved past it, and only this thread advances head.
    const std::size_t n = nrows * num_dims;
    std::copy(rows, rows + n, slot.values.begin());
    slot.nrows = nrows;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++head_;
    }
    not_empty_.notify_one();
    return blocked;
  }

  /// Producer: no more chunks (or the producer failed with `error`).
  void finish(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      error_ = std::move(error);
      done_ = true;
    }
    not_empty_.notify_one();
  }

  /// Consumer: blocks until the next chunk (in production order) is ready;
  /// returns nullptr when the producer finished and the ring is drained.
  /// Rethrows a producer-side failure after the drained prefix — the
  /// consumer sees exactly the chunks a synchronous scan would have
  /// delivered before the same failure.  Wait time is added to `stats`.
  struct Slot;
  const Slot* consume(IoScanStats& stats) {
    std::unique_lock<std::mutex> lock(mu_);
    if (head_ == tail_ && !done_) {
      const Timer wait;
      not_empty_.wait(lock, [&] { return head_ > tail_ || done_; });
      stats.wait_seconds += wait.seconds();
    }
    if (head_ == tail_) {
      if (error_) std::rethrow_exception(error_);
      return nullptr;
    }
    return &slots_[tail_ % slots_.size()];
  }

  /// Consumer: releases the slot returned by consume().
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++tail_;
    }
    not_full_.notify_one();
  }

  /// Consumer: tells a possibly-blocked producer to stop (consumer-side
  /// unwind path).  Idempotent.
  void cancel() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
    }
    not_full_.notify_one();
  }

  struct Slot {
    std::vector<Value> values;
    std::size_t nrows = 0;
  };

 private:
  std::vector<Slot> slots_;
  std::mutex mu_;
  std::condition_variable not_full_;   // producer waits: ring has room
  std::condition_variable not_empty_;  // consumer waits: chunk or done
  std::size_t head_ = 0;  ///< chunks produced (published)
  std::size_t tail_ = 0;  ///< chunks consumed (released)
  bool done_ = false;
  bool cancelled_ = false;
  std::exception_ptr error_;
};

/// Joins the producer on every exit path.  Cancelling first guarantees a
/// producer blocked on a full ring wakes and unwinds, so the join can
/// never deadlock — this is the fault-safety half of the pipeline
/// contract (an AbortedError or injected kill in the consumer reaches
/// this destructor during unwinding).
class ProducerGuard {
 public:
  ProducerGuard(ChunkRing& ring, std::thread thread)
      : ring_(ring), thread_(std::move(thread)) {}
  ~ProducerGuard() {
    ring_.cancel();
    if (thread_.joinable()) thread_.join();
  }
  ProducerGuard(const ProducerGuard&) = delete;
  ProducerGuard& operator=(const ProducerGuard&) = delete;

 private:
  ChunkRing& ring_;
  std::thread thread_;
};

}  // namespace

PipelinedSource::PipelinedSource(const DataSource& inner, std::size_t buffers)
    : inner_(inner), buffers_(buffers) {
  require(buffers >= 2, "PipelinedSource: ring needs at least 2 buffers");
}

void PipelinedSource::scan(RecordIndex begin, RecordIndex end,
                           std::size_t chunk_records, const ChunkFn& fn) const {
  IoScanStats ignored;
  scan_with_stats(begin, end, chunk_records, fn, ignored);
}

void PipelinedSource::scan_with_stats(RecordIndex begin, RecordIndex end,
                                      std::size_t chunk_records,
                                      const ChunkFn& fn,
                                      IoScanStats& stats) const {
  require(chunk_records > 0, "scan: chunk_records must be positive");
  require(begin <= end && end <= inner_.num_records(), "scan: bad record range");
  const std::size_t d = inner_.num_dims();
  const Timer scan_timer;
  IoScanStats local;
  if (begin == end) {
    local.scan_seconds = scan_timer.seconds();
    stats.merge(local);
    return;
  }

  ChunkRing ring(buffers_, chunk_records * d);

  // Producer: run the inner source's own synchronous scan, staging each
  // chunk into the ring.  Chunk boundaries are therefore the inner scan's
  // by construction.  read_seconds is accumulated producer-side (only this
  // thread touches it until the join below); time blocked on a full ring
  // is consumer backpressure, not reading, and is subtracted out.
  double read_seconds = 0.0;
  std::thread producer([&] {
    std::exception_ptr error;
    try {
      const Timer read_timer;
      double blocked = 0.0;
      inner_.scan(begin, end, chunk_records,
                  [&](const Value* rows, std::size_t nrows) {
                    blocked += ring.produce(rows, nrows, d);
                  });
      read_seconds = read_timer.seconds() - blocked;
      if (read_seconds < 0.0) read_seconds = 0.0;
    } catch (const ProducerCancelled&) {
      // Consumer-side unwind already in progress; its exception wins.
    } catch (...) {
      error = std::current_exception();
    }
    ring.finish(std::move(error));
  });
  const ProducerGuard guard(ring, std::move(producer));

  // Consumer: drain strictly FIFO.  A callback exception leaves through
  // the guard, which cancels + joins the producer before rethrowing.
  while (const ChunkRing::Slot* slot = ring.consume(local)) {
    const Timer compute;
    fn(slot->values.data(), slot->nrows);
    local.compute_seconds += compute.seconds();
    ++local.chunks;
    local.bytes += slot->nrows * d * sizeof(Value);
    ring.release();
  }

  // Normal exit: the producer has already left inner_.scan (consume()
  // returned nullptr only after finish()), so read_seconds is final even
  // though the guard's join happens later.
  local.read_seconds = read_seconds;
  local.scan_seconds = scan_timer.seconds();
  stats.merge(local);
}

void timed_scan(const DataSource& source, RecordIndex begin, RecordIndex end,
                std::size_t chunk_records, const ChunkFn& fn,
                IoScanStats& stats) {
  const std::size_t d = source.num_dims();
  const Timer scan_timer;
  IoScanStats local;
  source.scan(begin, end, chunk_records,
              [&](const Value* rows, std::size_t nrows) {
                const Timer compute;
                fn(rows, nrows);
                local.compute_seconds += compute.seconds();
                ++local.chunks;
                local.bytes += nrows * d * sizeof(Value);
              });
  local.scan_seconds = scan_timer.seconds();
  // Synchronous split: everything outside the callback is read time, and
  // none of it was hidden — wait == read by definition.
  local.read_seconds = local.scan_seconds - local.compute_seconds;
  if (local.read_seconds < 0.0) local.read_seconds = 0.0;
  local.wait_seconds = local.read_seconds;
  stats.merge(local);
}

void ThrottledSource::scan(RecordIndex begin, RecordIndex end,
                           std::size_t chunk_records, const ChunkFn& fn) const {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  // Emulated read seconds still owed: each chunk adds its bytes/bandwidth
  // and pays with the inner read's own time and the sleep's; a negative
  // balance (a sleep that overshot, a slow inner read) shortens the next
  // sleep, so a scan's reads total bytes/bandwidth however coarse the
  // host's timer is.
  double owed = 0.0;
  Clock::time_point read_start = Clock::now();
  inner_.scan(begin, end, chunk_records,
              [&](const Value* rows, std::size_t nrows) {
                // The sleep models the disk read of this chunk and happens
                // BEFORE the callback: downstream compute must not eat
                // into the emulated read time, or a synchronous consumer
                // would see the read for free and the sync-vs-pipelined
                // comparison the bench makes would be meaningless.
                owed += static_cast<double>(nrows * inner_.num_dims() *
                                            sizeof(Value)) /
                            bytes_per_second_ -
                        seconds_since(read_start);
                if (owed > 0.0) {
                  const Clock::time_point slept = Clock::now();
                  std::this_thread::sleep_for(
                      std::chrono::duration<double>(owed));
                  owed -= seconds_since(slept);
                }
                fn(rows, nrows);
                read_start = Clock::now();
              });
}

}  // namespace mafia
