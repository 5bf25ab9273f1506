#include "io/serial.hpp"

#include <cmath>
#include <stdexcept>

#include "ir/printer.hpp"

namespace powergear::io {

namespace {

/// Read a length prefix, sanity-bounded by the bytes actually remaining
/// (each element needs at least `min_bytes`): a corrupted count then fails
/// as "truncated payload" instead of attempting a multi-gigabyte resize.
std::size_t checked_count(Reader& r, std::size_t min_bytes, const char* what) {
    const std::uint64_t n = r.u64();
    if (min_bytes > 0 && n > r.remaining() / min_bytes)
        throw std::runtime_error(std::string("artifact: implausible ") + what +
                                 " count " + std::to_string(n) +
                                 " (truncated or corrupt payload)");
    return static_cast<std::size_t>(n);
}

void encode_directives(Writer& w, const hls::Directives& d) {
    w.u64(d.loops.size());
    for (const auto& [loop, ld] : d.loops) {
        w.i32(loop);
        w.i32(ld.unroll);
        w.u8(ld.pipeline ? 1 : 0);
    }
    w.u64(d.array_partition.size());
    for (const auto& [array, banks] : d.array_partition) {
        w.i32(array);
        w.i32(banks);
    }
}

hls::Directives decode_directives(Reader& r) {
    hls::Directives d;
    const std::size_t loops = checked_count(r, 9, "loop directive");
    for (std::size_t i = 0; i < loops; ++i) {
        const int loop = r.i32();
        hls::LoopDirective ld;
        ld.unroll = r.i32();
        ld.pipeline = r.u8() != 0;
        d.loops.emplace(loop, ld);
    }
    const std::size_t arrays = checked_count(r, 8, "array partition");
    for (std::size_t i = 0; i < arrays; ++i) {
        const int array = r.i32();
        d.array_partition.emplace(array, r.i32());
    }
    return d;
}

void encode_graph_into(Writer& w, const graphgen::Graph& g) {
    w.i32(g.num_nodes);
    w.i32(g.node_dim);
    w.u64(g.x.size());
    for (float v : g.x) w.f32(v);
    w.u64(g.edges.size());
    for (const graphgen::Graph::Edge& e : g.edges) {
        w.i32(e.src);
        w.i32(e.dst);
        w.i32(e.relation);
        for (float f : e.feat) w.f32(f);
    }
    w.u64(g.labels.size());
    for (const std::string& s : g.labels) w.str(s);
}

graphgen::Graph decode_graph_from(Reader& r) {
    graphgen::Graph g;
    g.num_nodes = r.i32();
    g.node_dim = r.i32();
    if (g.num_nodes < 0 || g.node_dim < 0)
        throw std::runtime_error("artifact: graph with negative dimensions");
    const std::size_t xn = checked_count(r, 4, "node feature");
    if (xn != static_cast<std::size_t>(g.num_nodes) *
                  static_cast<std::size_t>(g.node_dim))
        throw std::runtime_error(
            "artifact: graph feature count does not match num_nodes * node_dim");
    g.x.resize(xn);
    for (float& v : g.x) v = r.f32();
    const std::size_t en = checked_count(r, 12 + 4 * graphgen::Graph::kEdgeDim,
                                         "edge");
    g.edges.resize(en);
    for (graphgen::Graph::Edge& e : g.edges) {
        e.src = r.i32();
        e.dst = r.i32();
        e.relation = r.i32();
        if (e.relation < 0 || e.relation >= graphgen::Graph::kNumRelations)
            throw std::runtime_error("artifact: graph edge relation " +
                                     std::to_string(e.relation) +
                                     " out of range");
        for (float& f : e.feat) f = r.f32();
    }
    const std::size_t ln = checked_count(r, 8, "node label");
    g.labels.resize(ln);
    for (std::string& s : g.labels) s = r.str();
    // The structural validator also rejects NaN/inf features, closing the
    // door on non-finite values entering the NN via a crafted file.
    std::string why;
    if (!g.valid(&why))
        throw std::runtime_error("artifact: invalid graph payload: " + why);
    return g;
}

void encode_config(Writer& w, const gnn::ModelConfig& c) {
    w.u32(static_cast<std::uint32_t>(c.kind));
    w.i32(c.node_dim);
    w.i32(c.edge_dim);
    w.i32(c.metadata_dim);
    w.i32(c.hidden);
    w.i32(c.layers);
    w.f32(c.dropout);
    w.f64(c.learning_rate);
    w.u8(c.edge_features ? 1 : 0);
    w.u8(c.directed ? 1 : 0);
    w.u8(c.heterogeneous ? 1 : 0);
    w.u8(c.metadata ? 1 : 0);
    w.u8(c.jumping_knowledge ? 1 : 0);
    w.u64(c.seed);
}

gnn::ModelConfig decode_config(Reader& r) {
    gnn::ModelConfig c;
    const std::uint32_t kind = r.u32();
    if (kind > static_cast<std::uint32_t>(gnn::ConvKind::Gine))
        throw std::runtime_error("artifact: unknown conv kind " +
                                 std::to_string(kind));
    c.kind = static_cast<gnn::ConvKind>(kind);
    c.node_dim = r.i32();
    c.edge_dim = r.i32();
    c.metadata_dim = r.i32();
    c.hidden = r.i32();
    c.layers = r.i32();
    c.dropout = r.f32();
    c.learning_rate = r.f64();
    c.edge_features = r.u8() != 0;
    c.directed = r.u8() != 0;
    c.heterogeneous = r.u8() != 0;
    c.metadata = r.u8() != 0;
    c.jumping_knowledge = r.u8() != 0;
    c.seed = r.u64();
    if (c.node_dim <= 0 || c.hidden <= 0 || c.layers <= 0 ||
        c.metadata_dim < 0 || c.edge_dim < 0)
        throw std::runtime_error("artifact: model config with degenerate "
                                 "dimensions");
    return c;
}

} // namespace

// --- sim stage ---------------------------------------------------------------

std::vector<std::uint8_t> encode_trace(const sim::Trace& trace) {
    Writer w;
    w.i64(trace.executed_ops);
    w.u64(trace.values.size());
    for (const std::vector<std::uint32_t>& stream : trace.values) {
        w.u64(stream.size());
        for (std::uint32_t v : stream) w.u32(v);
    }
    return w.take();
}

sim::Trace decode_trace(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    sim::Trace t;
    t.executed_ops = r.i64();
    t.values.resize(checked_count(r, 8, "trace stream"));
    for (std::vector<std::uint32_t>& stream : t.values) {
        stream.resize(checked_count(r, 4, "trace value"));
        for (std::uint32_t& v : stream) v = r.u32();
    }
    r.expect_done("sim payload");
    return t;
}

// --- sample stage ------------------------------------------------------------

std::vector<std::uint8_t> encode_sample(const dataset::Sample& s) {
    Writer w;
    w.str(s.kernel);
    w.u64(s.design_index);
    encode_directives(w, s.directives);
    encode_graph_into(w, s.graph);
    w.u64(s.metadata.size());
    for (double v : s.metadata) w.f64(v);
    w.u64(s.hlpow_feats.size());
    for (float v : s.hlpow_feats) w.f32(v);
    w.f64(s.total_power_w);
    w.f64(s.dynamic_power_w);
    w.f64(s.static_power_w);
    w.i64(s.latency_cycles);
    w.f64(s.vivado_total_raw);
    w.f64(s.vivado_dynamic_raw);
    w.f64(s.vivado_runtime_s);
    w.f64(s.powergear_runtime_s);
    return w.take();
}

dataset::Sample decode_sample(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    dataset::Sample s;
    s.kernel = r.str();
    s.design_index = r.u64();
    s.directives = decode_directives(r);
    s.graph = decode_graph_from(r);
    s.metadata.resize(checked_count(r, 8, "metadata value"));
    for (double& v : s.metadata) v = r.f64();
    s.hlpow_feats.resize(checked_count(r, 4, "hlpow feature"));
    for (float& v : s.hlpow_feats) v = r.f32();
    s.total_power_w = r.f64();
    s.dynamic_power_w = r.f64();
    s.static_power_w = r.f64();
    s.latency_cycles = r.i64();
    s.vivado_total_raw = r.f64();
    s.vivado_dynamic_raw = r.f64();
    s.vivado_runtime_s = r.f64();
    s.powergear_runtime_s = r.f64();
    r.expect_done("sample payload");
    // The tensor view is a pure function of (graph, metadata); rebuilding it
    // here is bit-identical to what the cold path computes and keeps the
    // payload free of redundant derived data.
    s.tensors = gnn::GraphTensors::from(s.graph, s.metadata);
    return s;
}

// --- model stage -------------------------------------------------------------

std::vector<std::uint8_t> encode_ensemble(const gnn::Ensemble& ensemble) {
    Writer w;
    const std::vector<gnn::PowerModel*> members = ensemble.members();
    w.u64(members.size());
    for (gnn::PowerModel* m : members) {
        encode_config(w, m->config());
        const std::vector<nn::Param*> params = m->params();
        w.u64(params.size());
        for (nn::Param* p : params) {
            w.i32(p->w.rows());
            w.i32(p->w.cols());
            for (int row = 0; row < p->w.rows(); ++row)
                for (int col = 0; col < p->w.cols(); ++col)
                    w.f32(p->w.at(row, col));
        }
    }
    return w.take();
}

gnn::Ensemble decode_ensemble(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    std::vector<std::unique_ptr<gnn::PowerModel>> members;
    const std::size_t count = checked_count(r, 40, "ensemble member");
    for (std::size_t i = 0; i < count; ++i) {
        const gnn::ModelConfig cfg = decode_config(r);
        auto model = std::make_unique<gnn::PowerModel>(cfg);
        const std::vector<nn::Param*> params = model->params();
        const std::size_t stored = checked_count(r, 8, "model parameter");
        if (stored != params.size())
            throw std::runtime_error(
                "artifact: model parameter count mismatch (stored " +
                std::to_string(stored) + ", architecture has " +
                std::to_string(params.size()) + ")");
        for (nn::Param* p : params) {
            const int rows = r.i32();
            const int cols = r.i32();
            if (rows != p->w.rows() || cols != p->w.cols())
                throw std::runtime_error(
                    "artifact: model parameter shape mismatch");
            for (int row = 0; row < rows; ++row)
                for (int col = 0; col < cols; ++col)
                    p->w.at(row, col) = r.f32();
        }
        members.push_back(std::move(model));
    }
    r.expect_done("model payload");
    gnn::Ensemble out;
    out.adopt(std::move(members));
    return out;
}

// --- dse stage: objective-space points ---------------------------------------

std::vector<std::uint8_t> encode_points(const std::vector<dse::Point>& pts) {
    Writer w;
    w.u64(pts.size());
    for (const dse::Point& p : pts) {
        w.f64(p.latency);
        w.f64(p.power);
        w.i64(p.index);
    }
    return w.take();
}

std::vector<dse::Point> decode_points(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    const std::uint64_t n = r.u64();
    if (n > payload.size() / 24)
        throw std::runtime_error("artifact: dse point count exceeds payload");
    std::vector<dse::Point> pts;
    pts.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        dse::Point p;
        p.latency = r.f64();
        p.power = r.f64();
        p.index = r.i64();
        if (!std::isfinite(p.latency) || !std::isfinite(p.power))
            throw std::runtime_error(
                "artifact: non-finite dse point objective");
        pts.push_back(p);
    }
    r.expect_done("dse payload");
    return pts;
}

// --- model files --------------------------------------------------------------

namespace {

std::vector<std::uint8_t> load_payload(const std::string& path,
                                       const char* stage,
                                       std::uint32_t version) {
    std::optional<std::vector<std::uint8_t>> file = read_file(path);
    if (!file)
        throw std::runtime_error(std::string("artifact: cannot read ") + path);
    try {
        return unframe(*file, stage, version);
    } catch (const std::runtime_error& e) {
        throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
    }
}

} // namespace

void save_ensemble_file(const std::string& path, const gnn::Ensemble& e) {
    write_file_atomic(
        path, frame(kStageModel, kModelPayloadVersion, encode_ensemble(e)));
}

gnn::Ensemble load_ensemble_file(const std::string& path) {
    return decode_ensemble(load_payload(path, kStageModel, kModelPayloadVersion));
}

// --- content hashing ---------------------------------------------------------

std::uint64_t hash_ir(const ir::Function& fn) {
    const std::string text = ir::to_string(fn);
    return fnv1a(text.data(), text.size());
}

std::uint64_t hash_samples(std::span<const dataset::Sample* const> samples) {
    Hasher h;
    h.feed(static_cast<std::uint64_t>(samples.size()));
    for (const dataset::Sample* s : samples) {
        const std::vector<std::uint8_t> payload = encode_sample(*s);
        h.feed(fnv1a(payload.data(), payload.size()));
    }
    return h.value();
}

} // namespace powergear::io
