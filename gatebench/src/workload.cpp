#include "workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "core/engine.h"
#include "core/ingest.h"
#include "core/op.h"
#include "core/stream_op.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "trace/attacks.h"
#include "trace/sim.h"

namespace gatebench {

using namespace lumen;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

// Share of the capture used as the benign training prefix; attacks start
// after it.
constexpr double kGraceFrac = 0.4;
constexpr int kDevices = 8;

// The Kitsune-like IP-camera deployment of the packet-level stand-ins.
trace::BenignStyle camera_style() {
  trace::BenignStyle s;
  s.iat_scale = 0.5;
  s.size_scale = 2.5;
  s.w_http = 0.6;
  s.w_dns = 0.5;
  s.w_mqtt = 0.2;
  s.w_ntp = 0.6;
  s.w_tls = 2.0;
  s.w_telnet = 0.1;
  return s;
}

// Capture-time length of the generated capture, and passes over its
// post-grace region in the stream: about 37,800 packets per pass.
constexpr double kCaptureS = 600.0;
constexpr size_t kLoops = 2;

const std::vector<WorkloadSpec> kWorkloads = {
    // name, front, shards, pipeline, f32, offered_pps
    {"replay_kitnet", Front::kReplay, 1, false, false, 120000.0},
    {"socket_f32", Front::kSocket, 2, false, true, 200000.0},
    {"pipeline_windowed", Front::kReplay, 1, true, false, 300000.0},
};

std::string pipeline_body(double window_s) {
  return std::string(
             R"({"func": "field_extract", "input": None, "output": "P",
                 "param": ["srcIP", "packetLength"]},
                {"func": "groupby", "input": ["P"], "output": "G",
                 "flowid": ["srcmac"]},
                {"func": "time_slice", "input": ["G"], "output": "W",
                 "window": )") +
         std::to_string(window_s) +
         R"(, "align": "global"},
                {"func": "apply_aggregates", "input": ["W"], "output": "F"},
                {"func": "normalize", "input": ["F"], "output": "N",
                 "kind": "minmax"},)";
}

core::PipelineSpec parse_spec(const std::string& body) {
  auto spec = core::PipelineSpec::parse("[" + body + "]");
  if (!spec.ok()) fail("pipeline spec: " + spec.error().message);
  return std::move(spec).value();
}

Capture make_capture(const WorkloadSpec& w, uint64_t seed, double scale,
                     trace::Dataset* train_ds) {
  trace::Sim sim(seed);
  const trace::BenignStyle st = camera_style();
  const double dur = kCaptureS * scale;
  const double grace_end = dur * kGraceFrac;
  sim.benign_iot_traffic(0.0, dur, kDevices, st);
  // Two camera devices turn into Mirai bots after the grace prefix: a
  // low-rate telnet scan and C2 keepalives throughout, and a flood phase
  // over part of the streamed region.
  const double region_s = dur - grace_end;
  const std::vector<uint32_t> bots = {sim.lan_ip(st, 0), sim.lan_ip(st, 1)};
  attack_mirai_scan(sim, grace_end, region_s, bots, 2.0);
  attack_mirai_c2(sim, grace_end, region_s, bots, sim.wan_ip());
  attack_mirai_flood(sim, grace_end + 0.5 * region_s, 0.3 * region_s, bots,
                     sim.wan_ip(), 30.0);
  trace::Dataset ds = sim.finish(w.name, "gatebench", trace::Granularity::kPacket);
  const auto& raw = ds.trace.raw;
  const auto& views = ds.trace.view;
  if (raw.size() != views.size()) fail("generated capture has malformed frames");

  size_t grace = 0;
  while (grace < views.size() && views[grace].ts < grace_end) ++grace;
  if (grace < 200 || grace + 200 > views.size()) fail("capture too small");

  Capture cap;
  cap.train.assign(views.begin(), views.begin() + static_cast<ptrdiff_t>(grace));
  if (train_ds != nullptr) {
    train_ds->id = std::string(w.name) + "-train";
    train_ds->label_granularity = trace::Granularity::kPacket;
    train_ds->trace.link = ds.trace.link;
    for (size_t i = 0; i < grace; ++i) {
      train_ds->trace.raw.push_back(raw[i]);
      train_ds->pkt_label.push_back(ds.label_at(i));
      train_ds->pkt_attack.push_back(ds.attack_at(i));
    }
    netio::parse_trace(train_ds->trace);
  }

  // The stream: the post-grace region looped with timestamps shifted by
  // its span plus one mean gap, so capture time stays monotonic.
  const size_t region = views.size() - grace;
  const double span = raw.back().ts - raw[grace].ts;
  const double period = span + span / static_cast<double>(region);
  cap.stream.link = ds.trace.link;
  cap.stream.raw.reserve(region * kLoops);
  cap.views.reserve(region * kLoops);
  cap.label.reserve(region * kLoops);
  for (size_t l = 0; l < kLoops; ++l) {
    for (size_t i = grace; i < raw.size(); ++i) {
      netio::RawPacket p = raw[i];
      p.ts += static_cast<double>(l) * period;
      const uint32_t idx = static_cast<uint32_t>(cap.stream.raw.size());
      auto v = netio::parse_packet(p, cap.stream.link, idx);
      if (!v.ok()) fail("stream frame failed to parse");
      cap.views.push_back(v.value());
      cap.stream.raw.push_back(std::move(p));
      cap.label.push_back(ds.label_at(i));
    }
  }

  // Open-loop release schedule: the capture's own gaps, scaled so the
  // mean rate is the workload's offered rate.
  const size_t n = cap.stream.raw.size();
  const double ts0 = cap.stream.raw.front().ts;
  const double total = cap.stream.raw.back().ts - ts0;
  const double k =
      total > 0.0 ? static_cast<double>(n - 1) / (w.offered_pps * total) : 0.0;
  cap.offset_ns.resize(n);
  for (size_t i = 0; i < n; ++i) {
    cap.offset_ns[i] =
        static_cast<int64_t>((cap.stream.raw[i].ts - ts0) * k * 1e9);
  }
  return cap;
}

std::vector<uint8_t> encode_hello(netio::LinkType link) {
  std::vector<uint8_t> out;
  netio::append_hello(out, 0, link);
  return out;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<core::StreamPipeline> compile_chain(const PipelineModel& pm) {
  core::StreamingOptions sopts;
  sopts.bindings.emplace("Model", pm.model);
  auto chain = core::compile_streaming(pm.spec, std::move(sopts));
  if (!chain.ok()) fail("compile_streaming: " + chain.error().message);
  return std::move(chain).value();
}

void alert_rows(const core::EpochBatch& batch, std::vector<std::string>& out) {
  for (size_t r = 0; r < batch.predictions.size(); ++r) {
    if (batch.predictions[r] != 0) {
      out.push_back(std::to_string(batch.epoch) + "|" + batch.keys[r]);
    }
  }
}

std::unique_ptr<Setup> setup(const WorkloadSpec& w, uint64_t seed,
                             double scale) {
  auto s = std::make_unique<Setup>();
  trace::Dataset train_ds;
  s->cap = make_capture(w, seed, scale, w.pipeline ? &train_ds : nullptr);
  const size_t n = s->cap.stream.raw.size();

  const core::FlowShardRouter router(w.shards, s->cap.stream.link);
  s->shard_pos.assign(w.shards, {});
  for (size_t i = 0; i < n; ++i) {
    s->shard_pos[router.shard_of(s->cap.stream.raw[i])].push_back(
        static_cast<uint32_t>(i));
  }
  if (w.front == Front::kSocket) {
    // One connection per shard, so each connection's arrival order is its
    // shard's order and the run stays deterministic.
    s->conn_bytes.assign(w.shards, encode_hello(s->cap.stream.link));
    s->conn_of.resize(n);
    s->rec_end.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c =
          static_cast<uint32_t>(router.shard_of(s->cap.stream.raw[i]));
      netio::append_record(s->conn_bytes[c], s->cap.stream.raw[i],
                           static_cast<uint32_t>(i));
      s->conn_of[i] = c;
      s->rec_end[i] = s->conn_bytes[c].size();
    }
  }

  if (w.pipeline) {
    // Window: about 20 packets of the stream per epoch.
    const double span =
        s->cap.stream.raw.back().ts - s->cap.stream.raw.front().ts;
    s->pipeline.window_s = span / (static_cast<double>(n) / 20.0);
    const std::string body = pipeline_body(s->pipeline.window_s);
    Clock::time_point t0 = Clock::now();
    core::Engine::Options eopts;
    eopts.registry = nullptr;
    core::OpContext ctx;
    ctx.dataset = &train_ds;
    auto report = core::Engine(eopts).run(
        parse_spec(body +
                   R"({"func": "model", "input": None, "output": "M0",
                       "model_type": "KitNET", "normalize": true},
                      {"func": "train", "input": ["M0", "N"],
                       "output": "Model"},)"),
        ctx);
    if (!report.ok()) fail("pipeline train: " + report.error().message);
    s->pipeline.model = *report.value().get<core::ModelValue>("Model");
    s->train_s = seconds_since(t0);
    t0 = Clock::now();
    s->pipeline.spec = parse_spec(
        body + R"({"func": "predict", "input": ["Model", "N"],
                   "output": "Preds"},)");
    compile_chain(s->pipeline);
    s->compile_s = seconds_since(t0);
  } else {
    Clock::time_point t0 = Clock::now();
    s->detector.train(s->cap.train);
    s->train_s = seconds_since(t0);
    t0 = Clock::now();
    if (w.f32) {
      auto r = s->detector.compile(ml::compiled::Precision::kF32);
      if (!r.ok()) fail("compile f32: " + r.error().message);
      s->plan = s->detector.compiled_plan();
    } else {
      // The runtime scores on the reference f64 path; the model-layer pass
      // times the bit-identical f64 plan.
      auto plan = ml::compiled::compile_kitnet(s->detector.detector(),
                                               {ml::compiled::Precision::kF64});
      if (!plan.ok()) fail("compile f64: " + plan.error().message);
      s->plan = std::move(plan).value();
    }
    s->compile_s = seconds_since(t0);
  }

  // Construct and bind a runtime and front end once, as a deployment would.
  {
    telemetry::Registry reg;
    core::IngestRuntime::Options o;
    o.shards = w.shards;
    o.registry = &reg;
    core::CollectingSink sink;
    core::IngestRuntime rt(
        o,
        [&](size_t) {
          return std::make_unique<core::KitsuneScorer>(s->detector);
        },
        &sink);
    if (w.front == Front::kSocket) {
      netio::FrontendOptions fo;
      fo.registry = &reg;
      netio::GatewayFrontend fe(fo);
      if (!fe.bind().ok()) fail("frontend bind");
    }
  }
  return s;
}

Reference reference(const WorkloadSpec& w, const Setup& s) {
  Reference ref;
  const Capture& cap = s.cap;
  if (!w.pipeline) {
    std::vector<netio::PacketView> views;
    std::vector<double> scores(kScoreBatch);
    for (const auto& pos : s.shard_pos) {
      core::OnlineKitsune det = s.detector;
      views.clear();
      for (uint32_t p : pos) views.push_back(cap.views[p]);
      for (size_t lo = 0; lo < views.size(); lo += kScoreBatch) {
        const size_t m = std::min(kScoreBatch, views.size() - lo);
        det.score_packets({views.data() + lo, m}, scores.data());
        for (size_t i = 0; i < m; ++i) {
          if (scores[i] > det.threshold()) ref.alerts.push_back(views[lo + i].index);
        }
      }
    }
    std::sort(ref.alerts.begin(), ref.alerts.end());
    uint64_t tp = 0, pos_labels = 0;
    for (uint8_t l : cap.label) pos_labels += l;
    for (uint32_t a : ref.alerts) tp += cap.label[a];
    const double prec = ref.alerts.empty() ? 0.0 : double(tp) / ref.alerts.size();
    const double rec = pos_labels == 0 ? 0.0 : double(tp) / pos_labels;
    ref.f1 = prec + rec > 0.0 ? 2.0 * prec * rec / (prec + rec) : 0.0;
    return ref;
  }

  // Pipeline: one chain per shard; rows are labelled malicious when any
  // packet of their (srcmac, window) group carries an attack label.
  auto keyfn = core::make_group_key("srcmac");
  if (!keyfn.ok()) fail("group key: " + keyfn.error().message);
  uint64_t tp = 0, fp = 0, fn = 0;
  for (const auto& pos : s.shard_pos) {
    if (pos.empty()) continue;
    auto chain = compile_chain(s.pipeline);
    std::vector<core::EpochBatch> emitted;
    chain->set_callback(
        [&](core::EpochBatch&& b) { emitted.push_back(std::move(b)); });
    std::unordered_set<std::string> malicious;
    const auto score_rows = [&] {
      for (const core::EpochBatch& b : emitted) {
        alert_rows(b, ref.rows);
        for (size_t r = 0; r < b.keys.size(); ++r) {
          const bool bad = malicious.count(b.keys[r]) != 0;
          const bool alert = b.predictions[r] != 0;
          tp += bad && alert;
          fp += !bad && alert;
          fn += bad && !alert;
        }
      }
      emitted.clear();
    };
    // Same window arithmetic as the chain's time_slice (origin = first
    // packet of the shard's stream).
    const double t0 = cap.views[pos.front()].ts;
    for (uint32_t p : pos) {
      const netio::PacketView& v = cap.views[p];
      chain->push(v);
      for (const core::EpochBatch& b : emitted) {
        if (ref.epoch_closer.size() <= b.epoch) ref.epoch_closer.resize(b.epoch + 1, -1);
        ref.epoch_closer[b.epoch] = p;
      }
      if (cap.label[p] != 0) {
        const int64_t wi = static_cast<int64_t>((v.ts - t0) / s.pipeline.window_s);
        malicious.insert(keyfn.value()(v) + "#w" + std::to_string(wi));
      }
      score_rows();
    }
    chain->finish();
    score_rows();
  }
  std::sort(ref.rows.begin(), ref.rows.end());
  ref.f1 = tp == 0 ? 0.0 : 2.0 * tp / (2.0 * tp + fp + fn);
  return ref;
}

}  // namespace gatebench
