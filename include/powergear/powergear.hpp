// powergear — public API facade.
//
// This is the ONE header an external client includes:
//
//   #include <powergear/powergear.hpp>
//
// It re-exports the supported surface under the top-level `powergear`
// namespace and pins the API contract with POWERGEAR_API_VERSION. Every
// other header in the installed tree is an internal transitive dependency:
// reachable (the facade pulls what it needs), but not a stability boundary.
//
// Supported surface
//
//   powergear::PowerGear          train / estimate_batch / save / load
//                                 the hetero-edge-centric GNN ensemble;
//                                 one design is a one-sample pool
//   powergear::PowerGear::Options model + training configuration
//   powergear::Estimate           { watts, member_spread } per design
//   powergear::SamplePool         non-owning ordered batch of samples
//   powergear::dataset::*         dataset generation + pool builders
//                                 (generate_dataset, pool_of, pool_except)
//   powergear::serve::Server      long-lived batched estimation daemon
//   powergear::serve::Client      its Unix-socket client (one connection;
//                                 estimate / estimate_batch / ping /
//                                 reload / shutdown_server)
//
// Stability rules (DESIGN.md §12):
//   - POWERGEAR_API_VERSION bumps on any breaking change to the types
//     re-exported here, the serve wire protocol, or the artifact container.
//     Additive changes (new Options fields with defaults, new methods) do
//     not bump it.
//   - The serve wire protocol carries its own payload versions
//     (io::kServeReqVersion / kServeRespVersion) inside every frame, so a
//     client/daemon version skew fails loudly at the frame boundary, never
//     silently.
//   - Anything you reach through an internal header directly (ir::, gnn::,
//     nn::, ...) can change in any release without notice.
//
// Version history:
//   2  PowerGear::estimate_batch(pool, chunk) removed (chunking is internal).
//   3  The single-sample estimate overloads removed: estimate_batch is
//      the one estimation call, and a one-sample pool scores one design.
#pragma once

/// Major version of the public API re-exported by this header. Compile-time
/// check: #if POWERGEAR_API_VERSION != <expected> #error ... #endif
#define POWERGEAR_API_VERSION 3

#include "core/powergear.hpp"
#include "core/sample_pool.hpp"
#include "core/serve/client.hpp"
#include "core/serve/server.hpp"
#include "dataset/generator.hpp"
#include "dataset/splits.hpp"

namespace powergear {

// Estimator: the names clients use, without the core:: spelling.
using core::Estimate;
using core::PowerGear;
using core::SamplePool;

/// Serving: daemon + client for repeated estimation without per-call
/// process startup or model load.
namespace serve {
using core::serve::Client;
using core::serve::Server;
using core::serve::ServerConfig;
} // namespace serve

} // namespace powergear
