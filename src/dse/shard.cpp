#include "dse/shard.hpp"

#include <cstdio>
#include <stdexcept>

#include "dse/pareto/archive.hpp"
#include "dse/stream.hpp"
#include "hls/directives.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"
#include "obs/obs.hpp"

namespace powergear::dse {

namespace {

std::string hex16(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t shard_artifact_key(std::uint64_t space_key,
                                 std::uint64_t worker) {
    return io::Hasher()
        .feed(std::string("dse-shard-frontier"))
        .feed(space_key)
        .feed(worker)
        .value();
}

} // namespace

std::uint64_t shard_space_key(const ir::Function& fn,
                              const dataset::GeneratorOptions& opts,
                              dataset::PowerKind kind, std::size_t chunk,
                              std::uint64_t limit,
                              std::uint64_t num_workers) {
    return io::Hasher()
        .feed(std::string(io::kArtifactFormatName))
        .feed(std::string(io::kStageDse))
        .feed(std::uint64_t{io::kDsePayloadVersion})
        .feed(io::hash_ir(fn))
        .feed(opts.seed)
        .feed(static_cast<std::uint64_t>(kind))
        .feed(static_cast<std::uint64_t>(chunk))
        .feed(limit)
        .feed(num_workers)
        .value();
}

ShardOutcome run_shard(const ir::Function& fn,
                       const dataset::GeneratorOptions& opts,
                       dataset::PowerKind kind, const io::Cache& cache,
                       const ShardConfig& cfg) {
    if (cfg.num_workers == 0 || cfg.worker == 0 ||
        cfg.worker > cfg.num_workers)
        throw std::invalid_argument(
            "run_shard: worker must be in 1..num_workers");
    if (cfg.chunk == 0)
        throw std::invalid_argument("run_shard: chunk must be > 0");
    if (!cache.enabled())
        throw std::invalid_argument(
            "run_shard: sharded sweeps need an enabled cache "
            "(--cache-dir or POWERGEAR_CACHE)");
    const obs::Scope obs_scope(obs::Phase::Dse);

    const hls::DesignSpace space(fn);
    const std::uint64_t chunks = CandidateStream::num_chunks(
        space.size(), cfg.chunk, cfg.limit);
    const std::uint64_t key = shard_space_key(fn, opts, kind, cfg.chunk,
                                              cfg.limit, cfg.num_workers);
    io::Manifest manifest(
        cache.sidecar_path(io::kStageDse, "manifest-" + hex16(key) + ".mf"),
        cfg.worker);

    ParetoArchive archive;
    ShardOutcome out;

    // Resume: fold this worker's previously-published frontier back in, so
    // a re-run after a crash (or a plain repeat) skips Done chunks below
    // yet still stores the union of everything the worker ever completed.
    // Archive inserts are order-invariant, so a no-op re-run stores a
    // byte-identical artifact.
    const std::uint64_t art_key = shard_artifact_key(key, cfg.worker);
    if (const std::optional<std::vector<std::uint8_t>> prior =
            cache.load(io::kStageDse, art_key, io::kDsePayloadVersion))
        for (const Point& p : io::decode_points(*prior)) archive.insert(p);

    // Chunk visit order: preferred chunks (id ≡ worker-1 mod N) first so
    // uncontended workers never touch each other's share, then a stealing
    // pass over everything else in ascending order. The claim decides; a
    // lost race just moves on.
    const auto process = [&](std::uint64_t c, bool stolen) {
        // A chunk someone already finished needs no work — its points are
        // in the cache and in the finisher's frontier artifact.
        if (manifest.state(c) == io::Manifest::State::Done) return;
        if (!manifest.claim(c)) return;
        const std::vector<std::uint64_t> indices =
            CandidateStream::chunk_indices(space.size(), c, cfg.chunk,
                                           cfg.limit);
        const std::vector<dataset::Sample> samples =
            dataset::generate_design_points(fn, indices, opts);
        for (const dataset::Sample& s : samples)
            archive.insert(
                Point{static_cast<double>(s.latency_cycles),
                      static_cast<double>(s.label(kind)),
                      static_cast<std::int64_t>(s.design_index)});
        out.points += samples.size();
        ++out.chunks_claimed;
        if (stolen) ++out.chunks_stolen;
        manifest.complete(c);
    };
    for (std::uint64_t c = 0; c < chunks; ++c)
        if (c % cfg.num_workers == cfg.worker - 1) process(c, false);
    for (std::uint64_t c = 0; c < chunks; ++c)
        if (c % cfg.num_workers != cfg.worker - 1) process(c, true);

    out.front = archive.front();
    cache.store(io::kStageDse, art_key, io::kDsePayloadVersion,
                io::encode_points(out.front));
    out.artifact_path = cache.path_of(io::kStageDse, art_key);

    obs::add(obs::Phase::Dse, "chunks_claimed", out.chunks_claimed);
    obs::add(obs::Phase::Dse, "chunks_stolen", out.chunks_stolen);
    obs::add(obs::Phase::Dse, "shard_points", out.points);
    return out;
}

std::vector<Point> merge_shards(const io::Cache& cache,
                                std::uint64_t space_key,
                                std::uint64_t num_workers) {
    if (num_workers == 0)
        throw std::invalid_argument("merge_shards: num_workers must be >= 1");
    const obs::Scope obs_scope(obs::Phase::Dse);
    ParetoArchive archive;
    for (std::uint64_t w = 1; w <= num_workers; ++w) {
        const std::uint64_t art_key = shard_artifact_key(space_key, w);
        const std::optional<std::vector<std::uint8_t>> payload =
            cache.load(io::kStageDse, art_key, io::kDsePayloadVersion);
        if (!payload)
            throw std::runtime_error(
                "merge_shards: missing shard artifact " + std::to_string(w) +
                "/" + std::to_string(num_workers) +
                " — run `powergear dse --shard " + std::to_string(w) + "/" +
                std::to_string(num_workers) + "` against this cache first");
        for (const Point& p : io::decode_points(*payload)) archive.insert(p);
    }
    obs::add(obs::Phase::Dse, "shards_merged", num_workers);
    return archive.front();
}

} // namespace powergear::dse
