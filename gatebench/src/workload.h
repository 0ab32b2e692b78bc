// Workload definitions for the live-gateway benchmark: how each workload's
// capture is generated from the seed, how its detector is trained and
// compiled, and the sequential per-shard reference its alerts must match.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/stream.h"
#include "core/stream_op.h"
#include "core/value.h"
#include "ml/compiled.h"
#include "netio/packet.h"

namespace gatebench {

namespace core = lumen::core;
namespace ml = lumen::ml;
namespace netio = lumen::netio;

enum class Front { kReplay, kSocket };

struct WorkloadSpec {
  const char* name;
  Front front;
  size_t shards;
  bool pipeline;        // stream_op sink mode instead of a KitsuneScorer
  bool f32;             // score through an f32-compiled OnlineKitsune
  double offered_pps;   // fixed open-loop offered rate
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// Rows per PacketScorer::score_batch call: the runtime's default, which
/// the reference and the standalone model pass use too.
inline constexpr size_t kScoreBatch = 64;

/// One generated stream. Packet i of `stream` carries capture index i, so
/// verdicts match arrivals and labels by index.
struct Capture {
  netio::Trace stream;                   // raw frames, timestamps monotonic
  std::vector<netio::PacketView> views;  // parsed stream (reference passes)
  std::vector<uint8_t> label;            // generator label per packet
  std::vector<netio::PacketView> train;  // grace prefix (training input)
  std::vector<int64_t> offset_ns;  // open-loop release offset per packet
};

/// Pipeline-mode template: field_extract -> groupby(srcmac) ->
/// time_slice(global) -> apply_aggregates -> normalize -> predict.
struct PipelineModel {
  core::PipelineSpec spec;
  core::ModelValue model;
  double window_s = 0.0;
};

/// Everything a run needs, built by setup() inside the timed set-up.
struct Setup {
  Capture cap;
  core::OnlineKitsune detector;     // trained; f32-compiled when spec.f32
  ml::compiled::PlanPtr plan;       // plan the model-layer pass times
  PipelineModel pipeline;  // pipeline workloads only
  std::vector<std::vector<uint32_t>> shard_pos;  // stream positions by shard
  /// Socket workloads: one pre-encoded byte stream per connection (hello
  /// and records) and, per packet, the end offset of its record.
  std::vector<std::vector<uint8_t>> conn_bytes;
  std::vector<uint32_t> conn_of;
  std::vector<size_t> rec_end;
  double train_s = 0.0, compile_s = 0.0;
};

/// Generate, train, compile, and construct + bind a runtime and front end
/// once (discarded; every measured pass builds its own). `scale` shrinks
/// the capture for the smoke mode.
std::unique_ptr<Setup> setup(const WorkloadSpec& w, uint64_t seed,
                             double scale);

/// The sequential per-shard reference: partition with
/// FlowShardRouter::shard_of and score each shard's packets with a fresh
/// copy of the trained detector (OnlineKitsune::score_packets), or push
/// them through a fresh compiled chain (StreamPipeline::push).
struct Reference {
  std::vector<uint32_t> alerts;  // KitNET: sorted alerted capture indices
  std::vector<std::string> rows;  // pipeline: sorted "epoch|key" alert rows
  /// Pipeline: capture index of the packet that closed each epoch (-1 when
  /// end of stream closed it).
  std::vector<int64_t> epoch_closer;
  double f1 = 0.0;
};
Reference reference(const WorkloadSpec& w, const Setup& s);

/// A freshly compiled chain for the pipeline workload.
std::unique_ptr<core::StreamPipeline> compile_chain(const PipelineModel& pm);

/// Appends "epoch|key" for every alerted row of `batch`.
void alert_rows(const core::EpochBatch& batch, std::vector<std::string>& out);

}  // namespace gatebench
