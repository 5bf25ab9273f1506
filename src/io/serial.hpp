// Per-stage artifact codecs over the powergear-art-v1 container.
//
// One encode/decode pair per persisted pipeline stage (DESIGN.md §9):
//
//   stage tag   payload                                  upstream
//   "sim"       sim::Trace                               kernel IR
//   "sample"    dataset::Sample (graph, features, labels) trace + hls + board
//   "model"     gnn::Ensemble (configs + weights)        samples
//   "dse"       dse::Point frontier (shard artifacts)    samples
//
// encode_* produce raw little-endian payload bytes (hash those for content
// addressing); io::frame + io::write_file_atomic persist them, and
// io::unframe validates a frame before decoding. save_/load_ensemble_file
// do both for model files. Decoders are strict: truncated payloads,
// trailing bytes, out-of-range indices and non-finite graph features all
// throw std::runtime_error with a message naming the defect. Round trips
// are bit-exact, including the float/double fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/sample.hpp"
#include "dse/pareto.hpp"
#include "gnn/ensemble.hpp"
#include "io/artifact.hpp"
#include "sim/interpreter.hpp"

namespace powergear::io {

// Stage tags (the 8-byte header field) and payload schema versions.
constexpr char kStageSim[] = "sim";
constexpr char kStageSample[] = "sample";
constexpr char kStageModel[] = "model";
constexpr char kStageDse[] = "dse";

constexpr std::uint32_t kSimPayloadVersion = 1;
constexpr std::uint32_t kSamplePayloadVersion = 1;
constexpr std::uint32_t kModelPayloadVersion = 1;
/// 2: shard frontiers are always exact; a version-1 cache may hold a
/// grid-pruned frontier, so it must not key or feed a version-2 sweep.
constexpr std::uint32_t kDsePayloadVersion = 2;

// --- sim stage: value trace --------------------------------------------------
std::vector<std::uint8_t> encode_trace(const sim::Trace& trace);
sim::Trace decode_trace(const std::vector<std::uint8_t>& payload);

// --- sample stage: one design point -----------------------------------------
std::vector<std::uint8_t> encode_sample(const dataset::Sample& s);
/// Restores every stored field bit-exactly and rebuilds the NN tensor view
/// deterministically with gnn::GraphTensors::from (identical to the tensors
/// a cold run computes). Rejects graphs that fail graphgen::Graph::valid
/// (bad endpoints, non-finite features), so NaN/inf can never enter via a
/// crafted file.
dataset::Sample decode_sample(const std::vector<std::uint8_t>& payload);

// --- model stage: trained ensemble ------------------------------------------
std::vector<std::uint8_t> encode_ensemble(const gnn::Ensemble& ensemble);
gnn::Ensemble decode_ensemble(const std::vector<std::uint8_t>& payload);

// --- dse stage: objective-space points (shard frontier artifacts) -----------
std::vector<std::uint8_t> encode_points(const std::vector<dse::Point>& pts);
/// Rejects non-finite objectives, so a crafted shard artifact can never
/// feed NaN/inf into the dominance order.
std::vector<dse::Point> decode_points(const std::vector<std::uint8_t>& payload);

// --- model files --------------------------------------------------------------
void save_ensemble_file(const std::string& path, const gnn::Ensemble& e);
gnn::Ensemble load_ensemble_file(const std::string& path);

// --- content hashing ---------------------------------------------------------
/// FNV-1a over the kernel's printed IR: the upstream identity every stage
/// key chains from (two structurally identical kernels share it).
std::uint64_t hash_ir(const ir::Function& fn);

/// Content hash of a pool of samples (chained per-sample payload hashes, in
/// pool order). Keys the model stage on its exact training inputs.
std::uint64_t hash_samples(std::span<const dataset::Sample* const> samples);

} // namespace powergear::io
