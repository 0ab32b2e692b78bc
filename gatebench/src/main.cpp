// gatebench: the live-gateway benchmark. Runs one workload through the
// ingest runtime (front end -> router -> SPSC rings -> parse -> extract ->
// score -> sink), checks every verdict against a sequential reference, and
// prints the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). The last stdout line is the JSON result; see README.md.
//
//   gatebench --workload replay_kitnet --seed 1 --seconds 35 --trace 0
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ingest.h"
#include "core/kitsune_extractor.h"
#include "ml/dense.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "probes.h"
#include "workload.h"

namespace gatebench {
namespace {

using namespace lumen;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Share of --seconds spent in closed-loop drain passes (untraced mode); the
// open-loop passes get the rest. The traced mode spends kTracedShare of it
// on interleaved untraced/traced drains.
constexpr double kDrainShare = 0.4;
constexpr double kTracedShare = 0.8;
constexpr int kMinDrainPasses = 3;
// An open-loop pass whose generator released its p99 packet later than
// this is invalid: its latencies would measure the generator. Invalid
// passes are dropped; a run with no valid one after kMaxInvalidOpen extra
// attempts is reported invalid.
constexpr double kLagBoundUs = 250.0;
constexpr size_t kMaxInvalidOpen = 20;
// Open-loop latency: samples due in the first kWarmupNs of a pass, while
// the fresh runtime's threads and memory warm up, are dropped; the rest are
// cut, in due order, into quantile windows of kWindowSamples (50 ms of
// packets at 120000 pkts/s).
constexpr int64_t kWarmupNs = 25000000;
constexpr size_t kWindowSamples = 6000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
};

struct Pass {
  double wall_s = 0.0;
  int64_t cpu_ns = 0;
  uint64_t offered = 0, verdicted = 0;
  uint64_t enqueued = 0, dropped = 0, parse_skipped = 0, scored = 0;
  std::vector<uint64_t> shard_scored;
  double ring_high_water = 0.0;
  uint64_t frames_sent = 0, conn_frames = 0, conn_shed = 0, protocol_errors = 0;
  std::vector<uint32_t> alerts;
  std::vector<std::string> rows;
  std::vector<int64_t> latency_ns, lag_ns;
  double pps() const { return wall_s > 0.0 ? verdicted / wall_s : 0.0; }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Lower quartile, interpolated like the median above.
double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

// Nearest-rank quantile of an unsorted sample (sorted in place).
double quantile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size());
  return static_cast<double>(v[k - 1]);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// One pass of the whole stream through a fresh runtime: closed loop
/// (replay as fast as the runtime takes it, or the socket sender writing
/// as fast as the gateway reads) or open loop at the offered rate.
Pass run_pass(const WorkloadSpec& w, const Setup& s, const Reference& ref,
              bool open_loop, Ledger* ledger) {
  const Capture& cap = s.cap;
  const size_t n = cap.stream.raw.size();
  Pass out;
  out.offered = n;

  telemetry::Registry reg;
  core::IngestRuntime::Options o;
  o.shards = w.shards;
  o.registry = &reg;

  std::vector<int64_t> due;
  if (open_loop) due.resize(n);
  const int64_t* due_ptr = open_loop ? due.data() : nullptr;
  if (ledger != nullptr) {
    *ledger = Ledger{};
    ledger->consumers.resize(w.shards);
  }

  // Scorers / chains are built before the clock starts: the runtime's
  // factory only hands them over.
  std::vector<std::unique_ptr<core::PacketScorer>> scorers;
  std::vector<std::unique_ptr<core::StreamPipeline>> chains;
  std::unique_ptr<VerdictSink> vsink;
  std::unique_ptr<EpochVerdictSink> esink;
  std::unique_ptr<core::IngestRuntime> rt;
  if (w.pipeline) {
    for (size_t i = 0; i < w.shards; ++i) chains.push_back(compile_chain(s.pipeline));
    esink = std::make_unique<EpochVerdictSink>(due_ptr, &ref.epoch_closer, ledger);
    rt = std::make_unique<core::IngestRuntime>(
        o, [&](size_t id) { return std::move(chains[id]); }, esink.get());
  } else {
    for (size_t i = 0; i < w.shards; ++i) {
      std::unique_ptr<core::PacketScorer> sc =
          std::make_unique<core::KitsuneScorer>(s.detector);
      if (ledger != nullptr) {
        sc = std::make_unique<TracedScorer>(std::move(sc), &ledger->consumers[i]);
      }
      scorers.push_back(std::move(sc));
    }
    vsink = std::make_unique<VerdictSink>(due_ptr, n, ledger);
    rt = std::make_unique<core::IngestRuntime>(
        o, [&](size_t id) { return std::move(scorers[id]); }, vsink.get());
  }

  netio::TraceReplaySource replay(cap.stream);
  netio::ReplayDriver replay_driver(replay);
  PacedDriver paced(cap.stream, due_ptr, n);
  // Declared before the front end so that on an error path the front end
  // closes its sockets first and the sender's writes fail instead of
  // waiting forever.
  std::unique_ptr<SocketSender> sender;
  std::unique_ptr<netio::GatewayFrontend> fe;
  netio::SourceDriver* driver = open_loop ? static_cast<netio::SourceDriver*>(&paced)
                                          : &replay_driver;
  if (w.front == Front::kSocket) {
    netio::FrontendOptions fo;
    fo.registry = &reg;
    fo.min_streams = w.shards;
    fe = std::make_unique<netio::GatewayFrontend>(fo);
    if (!fe->bind().ok()) throw std::runtime_error("frontend bind failed");
    driver = fe.get();
  }
  TracedDriver traced(*driver, ledger != nullptr ? &ledger->producer : nullptr);
  if (ledger != nullptr) driver = &traced;

  // Lead before the first due time: thread start-up, and on the socket path
  // the sender's connects.
  const int64_t lead_ns = w.front == Front::kSocket ? 50000000 : 2000000;
  const int64_t cpu0 = process_cpu_ns();
  const int64_t t0 = now_ns();
  if (open_loop) {
    for (size_t i = 0; i < n; ++i) due[i] = t0 + lead_ns + cap.offset_ns[i];
  }
  if (w.front == Front::kSocket) {
    sender = std::make_unique<SocketSender>(fe->tcp_port(), s.conn_bytes,
                                            s.conn_of, s.rec_end, due_ptr, n);
  }
  auto stats = rt->run(*driver);
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.cpu_ns = process_cpu_ns() - cpu0;
  if (sender) {
    const std::string err = sender->join();
    if (!err.empty()) throw std::runtime_error("socket sender: " + err);
    out.lag_ns = std::move(sender->lag_ns);
    out.frames_sent = sender->frames_sent();
    for (const netio::ConnReport& c : fe->connections()) {
      out.conn_frames += c.frames;
      out.conn_shed += c.shed;
    }
  } else if (open_loop) {
    out.lag_ns = std::move(paced.lag_ns);
  }
  if (!stats.ok()) throw std::runtime_error("ingest run: " + stats.error().message);

  const telemetry::Snapshot snap = reg.snapshot();
  out.enqueued = snap.counter_value("ingest.enqueued");
  out.dropped = snap.counter_value("ingest.dropped");
  out.parse_skipped = snap.counter_value("ingest.parse_skipped");
  out.scored = snap.counter_value("ingest.scored");
  out.ring_high_water = snap.gauge_value("ingest.queue.high_water");
  out.protocol_errors = snap.counter_value("frontend.protocol_errors");
  for (size_t i = 0; i < w.shards; ++i) {
    out.shard_scored.push_back(
        snap.counter_value("ingest.shard" + std::to_string(i) + ".scored"));
  }
  // Warm-up samples are dropped, but never more than the first half of a
  // pass (the smoke mode's passes are short).
  const int64_t warmup = std::min(kWarmupNs, cap.offset_ns.back() / 2);
  if (w.pipeline) {
    out.verdicted = out.scored;
    out.rows = std::move(esink->rows);
    std::sort(out.rows.begin(), out.rows.end());
    for (const auto& [closer, ns] : esink->latency_ns) {
      if (cap.offset_ns[closer] >= warmup) out.latency_ns.push_back(ns);
    }
  } else {
    out.verdicted = vsink->verdicted;
    out.alerts = std::move(vsink->alerts);
    std::sort(out.alerts.begin(), out.alerts.end());
    for (size_t i = 0; i < vsink->latency_ns.size(); ++i) {
      if (cap.offset_ns[i] >= warmup) out.latency_ns.push_back(vsink->latency_ns[i]);
    }
  }
  return out;
}

/// The correctness gate: every pass is checked and counted; a failed
/// check is recorded as one line, never turned into a metric.
struct Gate {
  Gate(const WorkloadSpec& workload, const Reference& reference)
      : w(workload), ref(reference) {}

  const WorkloadSpec& w;
  const Reference& ref;
  std::vector<std::string> failures;
  uint64_t attempted = 0, lost = 0;

  void check(const Pass& p, const char* phase) {
    const auto fail = [&](const std::string& what) {
      failures.push_back(std::string(phase) + ": " + what);
    };
    attempted += p.offered;
    lost += p.offered - std::min(p.offered, p.verdicted);
    if (w.pipeline ? p.rows != ref.rows : p.alerts != ref.alerts) {
      fail("alert set differs from the sequential per-shard reference");
    }
    if (p.scored + p.parse_skipped != p.enqueued - p.dropped) {
      fail("scored + parse_skipped != enqueued - dropped");
    }
    if (p.verdicted != p.offered) {
      fail(std::to_string(p.offered - p.verdicted) + " of " +
           std::to_string(p.offered) + " packets got no verdict");
    }
    if (w.front == Front::kSocket && p.conn_frames != p.frames_sent) {
      fail("ConnReport frames " + std::to_string(p.conn_frames) +
           " != sent " + std::to_string(p.frames_sent));
    }
  }
};

double lag_p99_us(Pass& p) { return quantile(p.lag_ns, 0.99) * 1e-3; }

/// Metric name -> (value, unit), in output order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

/// The result line: one JSON object, every value with all its digits.
void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].first + "\": {\"value\": " + num(metrics[i].second.first) +
            ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct Standalone {
  double parse_ns = 0, extract_ns = 0, extract_max_us = 0, model_ns = 0,
         push_ns = 0;
  uint64_t contexts_end = 0, epochs = 0, rows = 0, late = 0;
};

/// Standalone passes over each shard's stream, from the trained state:
/// parse_packet; KitsuneExtractor::process feeding Plan::score_rows at the
/// runtime's score batch; or StreamPipeline::push.
Standalone standalone(const WorkloadSpec& w, const Setup& s) {
  Standalone r;
  const Capture& cap = s.cap;
  const double n = static_cast<double>(cap.stream.raw.size());
  {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      uint64_t ok = 0;
      const int64_t t0 = now_ns();
      for (const auto& pos : s.shard_pos) {
        for (uint32_t p : pos) {
          ok += netio::parse_packet(cap.stream.raw[p], cap.stream.link, p).ok();
        }
      }
      reps.push_back(static_cast<double>(now_ns() - t0) / n);
      if (ok != cap.stream.raw.size()) throw std::runtime_error("standalone parse failed");
    }
    r.parse_ns = median(reps);
  }
  if (w.pipeline) {
    int64_t total = 0;
    for (const auto& pos : s.shard_pos) {
      auto chain = compile_chain(s.pipeline);
      chain->set_callback([](core::EpochBatch&&) {});
      const int64_t t0 = now_ns();
      for (uint32_t p : pos) chain->push(cap.views[p]);
      chain->finish();
      total += now_ns() - t0;
      r.epochs += chain->epochs();
      r.rows += chain->rows();
      r.late += chain->late_packets();
    }
    r.push_ns = static_cast<double>(total) / n;
    return r;
  }
  int64_t extract_total = 0, model_total = 0, max_call = 0;
  const core::KitsuneExtractor& trained = s.detector.extractor();
  const size_t dim = trained.dim();
  const size_t ld = (dim + 7) & ~size_t{7};
  std::vector<double> row, block(kScoreBatch * ld), scores(kScoreBatch);
  ml::compiled::Scratch scratch;
  for (const auto& pos : s.shard_pos) {
    core::KitsuneExtractor ex = trained;
    for (size_t lo = 0; lo < pos.size(); lo += kScoreBatch) {
      const size_t m = std::min(kScoreBatch, pos.size() - lo);
      const int64_t t0 = now_ns();
      for (size_t i = 0; i < m; ++i) {
        ex.process(cap.views[pos[lo + i]], row);
        std::copy(row.begin(), row.end(), block.begin() + static_cast<ptrdiff_t>(i * ld));
      }
      const int64_t t1 = now_ns();
      s.plan->score_rows(block.data(), m, ld, scores.data(), scratch);
      model_total += now_ns() - t1;
      extract_total += t1 - t0;
    }
    // Second pass with a clock read per call for the longest call (context
    // table growth, or eviction under a context cap).
    core::KitsuneExtractor ex2 = trained;
    for (uint32_t p : pos) {
      const int64_t t0 = now_ns();
      ex2.process(cap.views[p], row);
      max_call = std::max(max_call, now_ns() - t0);
    }
    r.contexts_end += ex2.tracked_contexts();
  }
  r.extract_ns = static_cast<double>(extract_total) / n;
  r.model_ns = static_cast<double>(model_total) / n;
  r.extract_max_us = static_cast<double>(max_call) * 1e-3;
  return r;
}

std::string meta_json(const Args& a, const WorkloadSpec& w, const Setup& s,
                      size_t drain_passes, size_t open_passes,
                      size_t open_invalid, double lag_us, size_t samples) {
  std::string m = "{";
  m += "\"workload\": \"" + std::string(w.name) + "\"";
  m += ", \"seed\": " + std::to_string(a.seed);
  m += ", \"trace\": " + std::to_string(a.trace ? 1 : 0);
  m += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  m += ", \"cpu_model\": \"" + telemetry::json::Writer::escape(cpu_model()) + "\"";
  m += ", \"build_type\": \"" GATEBENCH_BUILD_TYPE "\"";
  m += ", \"dense_backend\": \"" +
       std::string(ml::dense::backend_name(ml::dense::active_backend())) + "\"";
  m += ", \"shards\": " + std::to_string(w.shards);
  m += ", \"packets_per_pass\": " + std::to_string(s.cap.stream.raw.size());
  m += ", \"train_packets\": " + std::to_string(s.cap.train.size());
  m += ", \"drain_passes\": " + std::to_string(drain_passes);
  m += ", \"open_loop_passes\": " + std::to_string(open_passes);
  m += ", \"open_loop_invalid_passes\": " + std::to_string(open_invalid);
  m += ", \"offered_pps\": " + num(w.offered_pps);
  m += ", \"gen.lag_p99_us\": " + num(lag_us);
  m += ", \"gen.lag_bound_us\": " + num(kLagBoundUs);
  m += ", \"verdict_samples\": " + std::to_string(samples);
  m += "}";
  return m;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--scale") a.scale = std::stod(val());
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0.0 || a.scale <= 0.0) throw std::invalid_argument("bad --seconds/--scale");
  return a;
}

void print_metrics(const Metrics& metrics, const Gate& gate) {
  for (const auto& [name, v] : metrics) {
    std::printf("%-34s %14s %s\n", name.c_str(), num(v.first).c_str(), v.second);
  }
  for (const std::string& f : gate.failures) std::printf("CHECK FAILED %s\n", f.c_str());
  print_result(gate.failures.empty(), gate.attempted, gate.lost, metrics);
}

/// Runs an open-loop pass; false (and counted in `invalid`) when the
/// generator lagged past kLagBoundUs.
bool open_pass(const WorkloadSpec& w, const Setup& s, Gate& gate, Pass& p,
               size_t& invalid) {
  p = run_pass(w, s, gate.ref, true, nullptr);
  gate.check(p, "open-loop");
  const double lag = lag_p99_us(p);
  if (lag <= kLagBoundUs) return true;
  std::fprintf(stderr, "open-loop pass invalid: generator lag p99 %.1f us\n", lag);
  ++invalid;
  return false;
}

int invalid_run() {
  std::printf("INVALID run: every open-loop pass lagged past %.0f us\n", kLagBoundUs);
  return 3;
}

int run_untraced(const Args& a, const WorkloadSpec& w) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int k = 0; k < kSetups; ++k) {
    s.reset();
    const int64_t t0 = now_ns();
    s = setup(w, a.seed, a.scale);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const Reference ref = reference(w, *s);
  Gate gate(w, ref);
  // Warm-up pass (checked, not timed): lazy set-up and caches.
  gate.check(run_pass(w, *s, ref, false, nullptr), "warm-up");

  // Drain and open-loop passes alternate over the whole --seconds, so both
  // phases sample the same stretch of host conditions.
  std::vector<double> pps, cpu, p50s, p99s;
  std::vector<int64_t> lag;
  std::vector<int64_t> window;
  size_t samples = 0, open_passes = 0, open_invalid = 0, late_attempts = 0;
  int64_t drain_ns = 0, open_ns = 0;
  const int64_t end = now_ns() + static_cast<int64_t>(a.seconds * 1e9);
  while (pps.size() < kMinDrainPasses || open_passes == 0 || now_ns() < end) {
    const int64_t t0 = now_ns();
    if (pps.size() < kMinDrainPasses ||
        (open_passes > 0 && drain_ns <= kDrainShare * (drain_ns + open_ns))) {
      const Pass p = run_pass(w, *s, ref, false, nullptr);
      gate.check(p, "drain");
      pps.push_back(p.pps());
      cpu.push_back(static_cast<double>(p.cpu_ns) / std::max<uint64_t>(1, p.verdicted));
      drain_ns += now_ns() - t0;
      continue;
    }
    Pass p;
    const bool valid = open_pass(w, *s, gate, p, open_invalid);
    open_ns += now_ns() - t0;
    if (!valid) {
      if (open_passes == 0 && now_ns() >= end && ++late_attempts >= kMaxInvalidOpen) break;
      continue;
    }
    ++open_passes;
    samples += p.latency_ns.size();
    // Windows run across passes, so a pipeline pass's few hundred epoch
    // samples join its neighbours'.
    for (const int64_t ns : p.latency_ns) {
      window.push_back(ns);
      if (window.size() == kWindowSamples) {
        p50s.push_back(quantile(window, 0.50) * 1e-3);
        p99s.push_back(quantile(window, 0.99) * 1e-3);
        window.clear();
      }
    }
    lag.insert(lag.end(), p.lag_ns.begin(), p.lag_ns.end());
  }
  if (p99s.empty() && !window.empty()) {  // a run shorter than one window
    p50s.push_back(quantile(window, 0.50) * 1e-3);
    p99s.push_back(quantile(window, 0.99) * 1e-3);
  }
  const double lag_us = quantile(lag, 0.99) * 1e-3;
  std::printf("meta %s\n", meta_json(a, w, *s, pps.size(), open_passes,
                                     open_invalid, lag_us, samples).c_str());
  if (open_passes == 0) return invalid_run();

  // Latency quantiles are taken per window and the lower quartile over
  // windows is reported: host stalls of 1-10 ms land in a minority of the
  // windows and would otherwise set p99, while a tail the program causes
  // itself recurs in most windows and still shows.
  const double loss =
      static_cast<double>(gate.lost) / static_cast<double>(std::max<uint64_t>(1, gate.attempted));
  std::printf("%-34s %14s %s\n", "loss_frac", num(loss).c_str(), "ratio");
  print_metrics({{"drain_pps", {median(pps), "pkts/s"}},
                 {"verdict_p50_us", {lower_quartile(p50s), "us"}},
                 {"verdict_p99_us", {lower_quartile(p99s), "us"}},
                 {"cpu_ns_per_pkt", {median(cpu), "ns"}},
                 {"rss_peak_mb", {rss_peak_mb(), "MB"}},
                 {"delivered_frac", {1.0 - loss, "ratio"}},
                 {"detect_f1", {ref.f1, "ratio"}},
                 {"setup_s", {median(setup_s), "s"}}},
                gate);
  return 0;
}

int run_traced(const Args& a, const WorkloadSpec& w) {
  std::unique_ptr<Setup> s = setup(w, a.seed, a.scale);
  const Reference ref = reference(w, *s);
  Gate gate(w, ref);
  gate.check(run_pass(w, *s, ref, false, nullptr), "warm-up");

  // Untraced and traced drains interleaved; the traced passes' ledgers are
  // pooled.
  std::vector<double> plain_pps, traced_pps;
  Ledger pooled;
  pooled.consumers.resize(w.shards);
  std::vector<uint64_t> shard_scored(w.shards, 0);
  uint64_t traced_pkts = 0, frames = 0, shed = 0, proto_errors = 0;
  const int64_t drain_end = now_ns() + static_cast<int64_t>(a.seconds * kTracedShare * 1e9);
  while (traced_pps.size() < kMinDrainPasses || now_ns() < drain_end) {
    const Pass u = run_pass(w, *s, ref, false, nullptr);
    gate.check(u, "drain");
    plain_pps.push_back(u.pps());
    Ledger led;
    const Pass t = run_pass(w, *s, ref, false, &led);
    gate.check(t, "traced drain");
    traced_pps.push_back(t.pps());
    traced_pkts += t.verdicted;
    pooled.producer += led.producer;
    for (size_t i = 0; i < w.shards; ++i) {
      pooled.consumers[i] += led.consumers[i];
      shard_scored[i] += t.shard_scored[i];
    }
    frames += w.front == Front::kSocket ? t.conn_frames : led.producer.accepted;
    shed += t.conn_shed;
    proto_errors += t.protocol_errors;
  }
  // One untraced open-loop pass for the generator lag and the ring
  // high-water mark under the offered rate.
  Pass open;
  size_t open_invalid = 0;
  bool valid = false;
  while (!valid && open_invalid < kMaxInvalidOpen) {
    valid = open_pass(w, *s, gate, open, open_invalid);
  }
  const double lag_us = lag_p99_us(open);
  const Standalone sa = standalone(w, *s);
  std::printf("meta %s\n", meta_json(a, w, *s, traced_pps.size(), valid ? 1 : 0,
                                     open_invalid, lag_us, open.latency_ns.size())
                               .c_str());
  if (!valid) return invalid_run();

  const ProducerProbe& prod = pooled.producer;
  const double pk = static_cast<double>(std::max<uint64_t>(1, traced_pkts));
  const double offers = static_cast<double>(std::max<uint64_t>(1, prod.offers));
  ConsumerProbe all;
  for (const ConsumerProbe& c : pooled.consumers) all += c;
  const auto smax = *std::max_element(shard_scored.begin(), shard_scored.end());
  const auto smin = *std::min_element(shard_scored.begin(), shard_scored.end());
  // Pipeline mode has no scorer to wrap: the chain's share of a consumer is
  // its standalone push cost.
  const auto inner_ns = [&](const ConsumerProbe& c, double packets) {
    return w.pipeline ? sa.push_ns * packets : static_cast<double>(c.score_ns);
  };
  const double other_ns = static_cast<double>(all.cpu_ns) - inner_ns(all, pk) -
                          static_cast<double>(all.sink_ns);
  const double driver_ns =
      static_cast<double>(prod.drive_cpu_ns - prod.offer_ns - prod.wait_cpu_ns);

  // Ledger: the bottleneck thread's rows against the traced wall time per
  // packet. Consumer rows put the standalone extract + model (or push)
  // costs in place of the in-run score_batch time, so the sum is not the
  // thread's own CPU clock read back.
  const double wall_per_pkt = 1e9 / median(traced_pps);
  double busiest = (driver_ns + static_cast<double>(prod.offer_ns)) / pk;
  double rows_sum = busiest;
  std::string bottleneck = "producer";
  for (size_t i = 0; i < w.shards; ++i) {
    const ConsumerProbe& c = pooled.consumers[i];
    if (static_cast<double>(c.cpu_ns) / pk <= busiest) continue;
    busiest = static_cast<double>(c.cpu_ns) / pk;
    bottleneck = "consumer" + std::to_string(i);
    const double share = static_cast<double>(shard_scored[i]);
    const double layers = w.pipeline ? sa.push_ns * share : (sa.extract_ns + sa.model_ns) * share;
    const double other = static_cast<double>(c.cpu_ns) - inner_ns(c, share) -
                         static_cast<double>(c.sink_ns);
    rows_sum = (other + layers + static_cast<double>(c.sink_ns)) / pk;
  }
  std::printf("ledger bottleneck %s: rows %.1f ns/pkt vs wall %.1f ns/pkt\n",
              bottleneck.c_str(), rows_sum, wall_per_pkt);
  const double n_passes = static_cast<double>(traced_pps.size());
  print_metrics(
      {{"netio.driver_ns_per_pkt", {driver_ns / offers, "ns"}},
       {"netio.parse_ns_per_pkt", {sa.parse_ns, "ns"}},
       {"netio.frames", {static_cast<double>(frames) / n_passes, "count"}},
       {"netio.shed", {static_cast<double>(shed), "count"}},
       {"netio.protocol_errors", {static_cast<double>(proto_errors), "count"}},
       {"gen.lag_p99_us", {lag_us, "us"}},
       {"ingest.offer_ns_per_pkt", {static_cast<double>(prod.offer_ns) / offers, "ns"}},
       {"ingest.blocked_frac",
        {static_cast<double>(prod.wait_wall_ns) /
             std::max(1.0, static_cast<double>(prod.drive_wall_ns)),
         "ratio"}},
       {"ingest.busy_per_kpkt", {1000.0 * static_cast<double>(prod.busy) / pk, "count"}},
       {"ingest.shard_skew",
        {smin == 0 ? 0.0 : static_cast<double>(smax) / static_cast<double>(smin), "ratio"}},
       {"ingest.ring_high_water", {open.ring_high_water, "count"}},
       {"ingest.consumer_ns_per_pkt", {static_cast<double>(all.cpu_ns) / pk, "ns"}},
       {"ingest.consumer_other_ns_per_pkt", {other_ns / pk, "ns"}},
       {"ingest.sink_ns_per_pkt", {static_cast<double>(all.sink_ns) / pk, "ns"}},
       {"ingest.rows_per_score_call",
        {all.score_calls == 0 ? 0.0
                              : static_cast<double>(all.rows) / static_cast<double>(all.score_calls),
         "count"}},
       {"detect.score_batch_ns_per_pkt",
        {all.rows == 0 ? 0.0 : static_cast<double>(all.score_ns) / static_cast<double>(all.rows),
         "ns"}},
       {"extract.ns_per_pkt", {sa.extract_ns, "ns"}},
       {"extract.max_call_us", {sa.extract_max_us, "us"}},
       {"extract.contexts_end", {static_cast<double>(sa.contexts_end), "count"}},
       {"model.ns_per_pkt", {sa.model_ns, "ns"}},
       {"model.weight_bytes",
        {s->plan ? static_cast<double>(s->plan->weight_bytes()) : 0.0, "bytes"}},
       {"model.train_s", {s->train_s, "s"}},
       {"model.compile_s", {s->compile_s, "s"}},
       {"stream.push_ns_per_pkt", {sa.push_ns, "ns"}},
       {"stream.epochs", {static_cast<double>(sa.epochs), "count"}},
       {"stream.rows", {static_cast<double>(sa.rows), "count"}},
       {"stream.late", {static_cast<double>(sa.late), "count"}},
       {"ledger.residual_frac", {std::fabs(rows_sum - wall_per_pkt) / wall_per_pkt, "ratio"}},
       {"trace.overhead_frac", {1.0 - median(traced_pps) / median(plain_pps), "ratio"}}},
      gate);
  return 0;
}

}  // namespace
}  // namespace gatebench

int main(int argc, char** argv) {
  using namespace gatebench;
  try {
    const Args a = parse_args(argc, argv);
    const WorkloadSpec* w = find_workload(a.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "gatebench: unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
    return a.trace ? run_traced(a, *w) : run_untraced(a, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gatebench: %s\n", e.what());
    return 1;
  }
}
