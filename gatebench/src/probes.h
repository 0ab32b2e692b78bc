// The benchmark's side of the live path: sinks that record verdicts, the
// open-loop generators (in-process paced replay and the loopback socket
// sender), and the traced wrappers that time calls into each layer's
// public entry points from outside the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ingest.h"
#include "core/stream_op.h"
#include "netio/frontend.h"

namespace gatebench {

int64_t now_ns();         // steady clock
int64_t thread_cpu_ns();  // CPU time of the calling thread
int64_t process_cpu_ns(); // user + sys of the whole process

/// Per-consumer-thread ledger filled by the traced wrappers.
struct ConsumerProbe {
  int64_t score_ns = 0;  // wall inside PacketScorer::score_batch
  uint64_t score_calls = 0;
  uint64_t rows = 0;
  int64_t sink_ns = 0;   // wall inside the sink
  int64_t cpu_ns = 0;    // thread CPU at the end of the consumer's run

  ConsumerProbe& operator+=(const ConsumerProbe& o) {
    score_ns += o.score_ns;
    score_calls += o.score_calls;
    rows += o.rows;
    sink_ns += o.sink_ns;
    cpu_ns += o.cpu_ns;
    return *this;
  }
};

/// Producer-thread ledger filled by TracedDriver and its feed wrapper.
struct ProducerProbe {
  int64_t drive_wall_ns = 0;
  int64_t drive_cpu_ns = 0;
  int64_t offer_ns = 0;     // wall inside FrameFeed::offer
  int64_t wait_wall_ns = 0; // wall inside FrameFeed::wait_ready
  int64_t wait_cpu_ns = 0;  // thread CPU inside FrameFeed::wait_ready
  uint64_t offers = 0, busy = 0, accepted = 0;

  ProducerProbe& operator+=(const ProducerProbe& o) {
    drive_wall_ns += o.drive_wall_ns;
    drive_cpu_ns += o.drive_cpu_ns;
    offer_ns += o.offer_ns;
    wait_wall_ns += o.wait_wall_ns;
    wait_cpu_ns += o.wait_cpu_ns;
    offers += o.offers;
    busy += o.busy;
    accepted += o.accepted;
    return *this;
  }
};

struct Ledger {
  ProducerProbe producer;
  std::vector<ConsumerProbe> consumers;
};

/// Sink for scorer mode: counts verdicts, collects alerted capture
/// indices, and (open loop) records due-time -> delivery latency per
/// capture index, so latency_ns is in due-time order.
class VerdictSink : public lumen::core::AlertSink {
 public:
  /// `due_ns` (optional): absolute due time per capture index.
  VerdictSink(const int64_t* due_ns, size_t packets, Ledger* ledger);
  void on_alert(const lumen::core::Alert& alert) override;
  void on_packet(const lumen::netio::PacketView& view, double score,
                 bool alerted) override;

  uint64_t verdicted = 0;
  std::vector<uint32_t> alerts;
  std::vector<int64_t> latency_ns;

 private:
  const int64_t* due_ns_;
  Ledger* ledger_;
};

/// Sink for pipeline mode: alerted rows, and (open loop) latency from the
/// due time of the packet that closed each epoch, as (capture index of that
/// packet, latency) in emission order.
class EpochVerdictSink : public lumen::core::EpochSink {
 public:
  EpochVerdictSink(const int64_t* due_ns, const std::vector<int64_t>* closer,
                   Ledger* ledger);
  void on_epoch(const lumen::core::EpochBatch& batch, size_t consumer) override;

  std::vector<std::string> rows;
  std::vector<std::pair<size_t, int64_t>> latency_ns;

 private:
  const int64_t* due_ns_;
  const std::vector<int64_t>* closer_;
  Ledger* ledger_;
};

/// Times PacketScorer::score_batch and reads the consumer thread's CPU
/// clock when the runtime destroys it at the end of the consumer loop.
class TracedScorer : public lumen::core::PacketScorer {
 public:
  TracedScorer(std::unique_ptr<lumen::core::PacketScorer> inner,
               ConsumerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  ~TracedScorer() override;
  double score(const lumen::netio::PacketView& view) override {
    return inner_->score(view);
  }
  double threshold() const override { return inner_->threshold(); }
  void score_batch(std::span<const lumen::netio::PacketView> views,
                   double* out) override;

 private:
  std::unique_ptr<lumen::core::PacketScorer> inner_;
  ConsumerProbe* probe_;
  std::thread::id owner_{};
};

/// Wraps a SourceDriver so its FrameFeed calls are timed.
class TracedDriver : public lumen::netio::SourceDriver {
 public:
  TracedDriver(lumen::netio::SourceDriver& inner, ProducerProbe* probe)
      : inner_(inner), probe_(probe) {}
  lumen::netio::LinkType link() const override { return inner_.link(); }
  lumen::Result<void> drive(lumen::netio::FrameFeed& feed,
                            const std::atomic<bool>& stop) override;

 private:
  lumen::netio::SourceDriver& inner_;
  ProducerProbe* probe_;
};

/// Open-loop in-process generator: releases packet i < count at its due
/// time and records how late each release was.
class PacedDriver : public lumen::netio::SourceDriver {
 public:
  PacedDriver(const lumen::netio::Trace& stream, const int64_t* due_ns,
              size_t count)
      : stream_(stream), due_ns_(due_ns), count_(count) {}
  lumen::netio::LinkType link() const override { return stream_.link; }
  lumen::Result<void> drive(lumen::netio::FrameFeed& feed,
                            const std::atomic<bool>& stop) override;
  std::vector<int64_t> lag_ns;

 private:
  const lumen::netio::Trace& stream_;
  const int64_t* due_ns_;
  size_t count_;
};

/// Busy-waits until the steady clock reaches `due`.
void wait_until(int64_t due);

/// Loopback TCP sender on its own thread: one connection per shard, each
/// carrying that shard's pre-encoded hello and records, of which it sends
/// those of packets [0, count) and then a FIN. Closed loop (due ==
/// nullptr) writes as fast as the gateway reads; open loop writes each
/// record at its due time and records the release lag.
class SocketSender {
 public:
  SocketSender(uint16_t port, const std::vector<std::vector<uint8_t>>& bytes,
               const std::vector<uint32_t>& conn_of,
               const std::vector<size_t>& rec_end, const int64_t* due_ns,
               size_t count);
  ~SocketSender();
  SocketSender(const SocketSender&) = delete;
  SocketSender& operator=(const SocketSender&) = delete;

  /// Join the thread; returns "" or the error it hit.
  std::string join();
  uint64_t frames_sent() const { return frames_sent_; }
  std::vector<int64_t> lag_ns;

 private:
  void run();

  uint16_t port_;
  const std::vector<std::vector<uint8_t>>& bytes_;
  const std::vector<uint32_t>& conn_of_;
  const std::vector<size_t>& rec_end_;
  const int64_t* due_ns_;
  size_t count_;
  std::string error_;
  uint64_t frames_sent_ = 0;
  std::thread thread_;  // last: started after every member it reads
};

}  // namespace gatebench
