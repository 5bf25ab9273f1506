// Static-analysis subsystem tests: the diagnostic engine itself, then one
// deliberately seeded violation per rule id (IR / SCHED / GRAPH / NN
// families) asserting exactly that rule fires, and finally the acceptance
// invariant that the whole Polybench suite lints clean end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "dataset/generator.hpp"
#include "gnn/convs.hpp"
#include "graphgen/features.hpp"
#include "hls/binding.hpp"
#include "hls/report.hpp"
#include "hls/scheduler.hpp"
#include "ir/builder.hpp"
#include "kernels/polybench.hpp"
#include "sim/activity.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"

using namespace powergear;
using ir::Builder;

namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// out[i] = A[i] * B[i] + 1 — one loop, loads with latency, a mul, a store.
ir::Function simple_kernel() {
    Builder b("simple");
    const int a = b.array("A", {8});
    const int bb = b.array("B", {8});
    const int out = b.array("out", {8});
    b.begin_loop("L0", 8);
    const int i = b.indvar();
    const int p = b.mul(b.load(a, {i}), b.load(bb, {i}));
    b.store(out, {i}, b.add(p, b.constant(1)));
    b.end_loop();
    return b.build();
}

struct Flow {
    hls::ElabGraph elab;
    hls::Schedule sched;
    hls::Binding binding;
};

Flow run_hls(const ir::Function& fn, const hls::Directives& dirs) {
    Flow f;
    f.elab = hls::elaborate(fn, dirs);
    f.sched = hls::schedule(fn, f.elab);
    f.binding = hls::bind(fn, f.elab, f.sched);
    return f;
}

graphgen::Graph build_graph(const ir::Function& fn) {
    const Flow f = run_hls(fn, hls::Directives{});
    sim::Interpreter interp(fn);
    sim::apply_stimulus(interp, fn, {});
    const sim::Trace trace = interp.run();
    const sim::ActivityOracle oracle(fn, f.elab, trace, f.sched.total_latency);
    return graphgen::construct_graph(fn, f.elab, f.binding, oracle);
}

gnn::GraphTensors tensors_of(const graphgen::Graph& g) {
    return gnn::GraphTensors::from(g,
                                   std::vector<double>(hls::kMetadataDim, 1.0));
}

} // namespace

// --- diagnostic engine ------------------------------------------------------

TEST(Diagnostics, RegistryHasUniqueIdsAcrossAllFamilies) {
    const auto& reg = analysis::rule_registry();
    ASSERT_FALSE(reg.empty());
    std::set<std::string> ids;
    bool ir = false, df = false, sched = false, graph = false, nn = false,
         api = false;
    for (const analysis::RuleInfo& r : reg) {
        EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule " << r.id;
        const std::string id = r.id;
        ir |= id.rfind("IR", 0) == 0;
        df |= id.rfind("DF", 0) == 0;
        sched |= id.rfind("SCHED", 0) == 0;
        graph |= id.rfind("GRAPH", 0) == 0;
        nn |= id.rfind("NN", 0) == 0;
        api |= id.rfind("API", 0) == 0;
        EXPECT_NE(r.summary[0], '\0');
    }
    EXPECT_TRUE(ir && df && sched && graph && nn && api);
}

TEST(Diagnostics, RuleLookupResolvesSeverity) {
    ASSERT_NE(analysis::rule_info("IR001"), nullptr);
    EXPECT_EQ(analysis::rule_info("IR001")->severity,
              analysis::Severity::Warning);
    ASSERT_NE(analysis::rule_info("SCHED001"), nullptr);
    EXPECT_EQ(analysis::rule_info("SCHED001")->severity,
              analysis::Severity::Error);
    EXPECT_EQ(analysis::rule_info("NOPE42"), nullptr);
    EXPECT_STREQ(analysis::severity_name(analysis::Severity::Warning),
                 "warning");
    EXPECT_STREQ(analysis::severity_name(analysis::Severity::Error), "error");
}

TEST(Diagnostics, ReportCountsMergesAndStampsContext) {
    analysis::Report r;
    r.add("IR001", "instr", 3, "dead def");
    r.add("SCHED001", "op", 7, "dependence violated");
    EXPECT_EQ(r.size(), 2);
    EXPECT_EQ(r.errors(), 1);
    EXPECT_EQ(r.warnings(), 1);
    EXPECT_FALSE(r.clean());
    EXPECT_TRUE(r.has("IR001"));
    EXPECT_EQ(r.count("SCHED001"), 1);
    EXPECT_FALSE(r.has("GRAPH001"));

    // Unregistered rules default to Error — misuse should be loud.
    analysis::Report other;
    other.add("BOGUS9", "thing", -1, "???");
    EXPECT_EQ(other.errors(), 1);

    r.set_context("gemm@baseline");
    r.merge(other);
    EXPECT_EQ(r.size(), 3);
    EXPECT_EQ(r.diagnostics()[0].context, "gemm@baseline");
    // set_context only fills empty contexts.
    r.set_context("overwritten?");
    EXPECT_EQ(r.diagnostics()[0].context, "gemm@baseline");
    EXPECT_EQ(r.diagnostics()[2].context, "overwritten?");
}

TEST(Diagnostics, RendersTextAndJson) {
    analysis::Report r;
    EXPECT_EQ(r.render_text(), "");
    EXPECT_NE(r.render_json().find("\"total\":0"), std::string::npos);

    r.add("IR001", "instr", 3, "mul result is never used");
    r.set_context("simple");
    const std::string text = r.render_text();
    EXPECT_NE(text.find("warning[IR001]"), std::string::npos);
    EXPECT_NE(text.find("simple"), std::string::npos);
    EXPECT_NE(text.find("instr 3"), std::string::npos);

    const std::string json = r.render_json();
    EXPECT_NE(json.find("\"rule\":\"IR001\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
    EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

TEST(Diagnostics, RequireCleanThrowsOnErrorsOnly) {
    analysis::Report warn_only;
    warn_only.add("IR001", "instr", 0, "dead def");
    EXPECT_NO_THROW(analysis::require_clean(warn_only, "here"));

    analysis::Report bad;
    bad.add("GRAPH001", "edge", 5, "endpoint out of range");
    try {
        analysis::require_clean(bad, "unit-test");
        FAIL() << "expected require_clean to throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("GRAPH001"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("unit-test"), std::string::npos);
    }
}

// --- IR lint ----------------------------------------------------------------

TEST(IrLint, CleanKernelProducesNoDiagnostics) {
    EXPECT_TRUE(analysis::lint_ir(simple_kernel()).empty());
}

TEST(IrLint, Ir000FiresOnVerifierFailureAndShortCircuits) {
    ir::Function fn = simple_kernel();
    // Use-before-def: point some operand at a not-yet-defined instruction.
    for (auto& in : fn.instrs)
        if (in.op == ir::Opcode::Mul) in.operands[0] = 9999;
    const analysis::Report r = analysis::lint_ir(fn);
    EXPECT_TRUE(r.has("IR000"));
    EXPECT_EQ(r.size(), 1); // structural failure suppresses the lint rules
}

TEST(IrLint, Ir001FiresOnDeadDef) {
    Builder b("dead");
    const int out = b.array("out", {1});
    b.add(b.constant(1), b.constant(2)); // never consumed
    b.store(out, {b.constant(0)}, b.constant(7));
    const analysis::Report r = analysis::lint_ir(b.build());
    EXPECT_EQ(r.count("IR001"), 1);
    EXPECT_FALSE(r.has("IR000"));
}

TEST(IrLint, Ir002FiresOnUnreachableLoop) {
    ir::Function fn = simple_kernel();
    // Detach the loop from the top-level statement list; the loop tree itself
    // stays self-consistent, so the verifier accepts it.
    fn.top.erase(std::remove_if(fn.top.begin(), fn.top.end(),
                                [](const ir::BodyItem& it) {
                                    return it.kind ==
                                           ir::BodyItem::Kind::ChildLoop;
                                }),
                 fn.top.end());
    const analysis::Report r = analysis::lint_ir(fn);
    EXPECT_EQ(r.count("IR002"), 1);
}

TEST(IrLint, Ir003FiresOnSilentNarrowing) {
    ir::Function fn = simple_kernel();
    // The builder always widens results to max(operand widths), so narrowing
    // can only be seeded by mutation.
    for (auto& in : fn.instrs)
        if (in.op == ir::Opcode::Mul) in.bitwidth = 8;
    const analysis::Report r = analysis::lint_ir(fn);
    EXPECT_EQ(r.count("IR003"), 1);
}

TEST(IrLint, Ir004FiresOnWriteOnlyInternalArray) {
    Builder b("wo");
    const int tmp = b.array("tmp", {4}, /*external=*/false);
    const int out = b.array("out", {4});
    b.begin_loop("L0", 4);
    const int i = b.indvar();
    b.store(tmp, {i}, i);
    b.store(out, {i}, i);
    b.end_loop();
    const analysis::Report r = analysis::lint_ir(b.build());
    EXPECT_EQ(r.count("IR004"), 1);
    // External 'out' is a kernel output: written-never-read is fine.
    EXPECT_EQ(r.size(), 1);
}

TEST(IrLint, Ir005FiresOnEmptyLoopBody) {
    ir::Function fn = simple_kernel();
    fn.loops[0].body.clear();
    const analysis::Report r = analysis::lint_ir(fn);
    EXPECT_EQ(r.count("IR005"), 1);
}

// --- dataflow checks --------------------------------------------------------

TEST(DfCheck, CleanKernelProducesNoDiagnostics) {
    EXPECT_TRUE(analysis::check_dataflow(simple_kernel()).empty());
}

TEST(DfCheck, Df001FiresOnProvableOutOfBoundsIndex) {
    Builder b("oob");
    const int a = b.array("A", {8});
    b.begin_loop("L0", 8);
    const int i = b.indvar();
    // i + 4 ranges over [4, 11] against an extent of 8.
    b.store(a, {b.add(i, b.constant(4))}, i);
    b.end_loop();
    const analysis::Report r = analysis::check_dataflow(b.build());
    EXPECT_EQ(r.count("DF001"), 1);
    EXPECT_EQ(r.size(), 1);
    EXPECT_NE(r.render_text().find("[4, 11]"), std::string::npos);
}

TEST(DfCheck, Df002FiresOnLoadBeforeAnyReachingStore) {
    Builder b("uninit");
    const int tmp = b.array("tmp", {4}, /*external=*/false);
    const int out = b.array("out", {4});
    b.begin_loop("L0", 4);
    const int i = b.indvar();
    b.store(out, {i}, b.load(tmp, {i})); // tmp never written anywhere
    b.end_loop();
    const analysis::Report r = analysis::check_dataflow(b.build());
    EXPECT_EQ(r.count("DF002"), 1);

    // The produce-then-consume idiom (store loop before load loop) is fine.
    Builder c("staged");
    const int t2 = c.array("tmp", {4}, /*external=*/false);
    const int o2 = c.array("out", {4});
    c.begin_loop("P", 4);
    c.store(t2, {c.indvar()}, c.indvar());
    c.end_loop();
    c.begin_loop("C", 4);
    c.store(o2, {c.indvar()}, c.load(t2, {c.indvar()}));
    c.end_loop();
    EXPECT_FALSE(analysis::check_dataflow(c.build()).has("DF002"));
}

TEST(DfCheck, Df003FiresOnDeadRegisterStore) {
    Builder b("deadstore");
    const int out = b.array("out", {4});
    const int acc = b.reg("acc");
    b.begin_loop("L0", 4);
    const int i = b.indvar();
    b.store(out, {i}, i);
    b.end_loop();
    b.store_reg(acc, b.constant(5)); // nothing ever loads acc
    const analysis::Report r = analysis::check_dataflow(b.build());
    EXPECT_EQ(r.count("DF003"), 1);
    EXPECT_EQ(r.diagnostics()[0].artifact, "instr");
}

TEST(DfCheck, Df003FiresOnUnreachableBlock) {
    ir::Function fn = simple_kernel();
    // Detach the loop from the top-level statement list (as in the IR002
    // test): its body blocks lose every incoming edge.
    fn.top.erase(std::remove_if(fn.top.begin(), fn.top.end(),
                                [](const ir::BodyItem& it) {
                                    return it.kind ==
                                           ir::BodyItem::Kind::ChildLoop;
                                }),
                 fn.top.end());
    const analysis::Report r = analysis::check_dataflow(fn);
    ASSERT_TRUE(r.has("DF003"));
    bool block_finding = false;
    for (const analysis::Diagnostic& d : r.diagnostics())
        block_finding |= d.rule == "DF003" && d.artifact == "block";
    EXPECT_TRUE(block_finding);
}

TEST(DfCheck, Df004FiresWhenSchedulerLosesRecurrenceEdges) {
    // acc = acc * A[i]: a genuine multiply recurrence (MII 3). On the intact
    // elaboration both sides agree; with the SSA edges stripped the
    // scheduler's recurrence analysis collapses to 1 and the independent
    // IR-side oracle catches it.
    Builder b("recur4");
    const int a = b.array("A", {8});
    const int out = b.array("out", {1});
    const int acc = b.reg("acc");
    b.store_reg(acc, b.constant(1));
    b.begin_loop("L0", 8);
    const int i = b.indvar();
    b.store_reg(acc, b.mul(b.load_reg(acc), b.load(a, {i})));
    b.end_loop();
    b.store(out, {b.constant(0)}, b.load_reg(acc));
    const ir::Function fn = b.build();

    hls::ElabGraph elab = hls::elaborate(fn, hls::Directives{});
    EXPECT_TRUE(analysis::check_recurrence(fn, elab).empty());

    elab.edges.clear();
    const analysis::Report r = analysis::check_recurrence(fn, elab);
    EXPECT_EQ(r.count("DF004"), 1);
    EXPECT_NE(r.render_text().find("recurrence MII"), std::string::npos);
}

// --- schedule checks --------------------------------------------------------

TEST(ScheduleCheck, CleanScheduleProducesNoDiagnostics) {
    const ir::Function fn = kernels::build_polybench("gemm", 8);
    hls::Directives dirs;
    for (int l : fn.innermost_loops()) dirs.loops[l] = {2, true};
    const Flow f = run_hls(fn, dirs);
    EXPECT_TRUE(analysis::check_schedule(fn, f.elab, f.sched).empty());
}

TEST(ScheduleCheck, Sched000FiresOnMalformedTables) {
    const ir::Function fn = simple_kernel();
    Flow f = run_hls(fn, hls::Directives{});

    hls::Schedule truncated = f.sched;
    truncated.op_cycle.pop_back();
    const analysis::Report r1 = analysis::check_schedule(fn, f.elab, truncated);
    EXPECT_TRUE(r1.has("SCHED000"));
    EXPECT_EQ(r1.size(), 1); // size mismatch bails before per-op rules

    hls::Schedule negative = f.sched;
    negative.op_cycle[0] = -3;
    EXPECT_TRUE(analysis::check_schedule(fn, f.elab, negative).has("SCHED000"));
}

TEST(ScheduleCheck, Sched001FiresWhenConsumerIssuesBeforeOperandReady) {
    const ir::Function fn = simple_kernel();
    Flow f = run_hls(fn, hls::Directives{});
    // Find an intra-region edge whose producer has nonzero latency (a load
    // feeding the mul) and issue the consumer in the producer's cycle.
    bool seeded = false;
    for (const hls::ElabEdge& e : f.elab.edges) {
        const hls::ElabOp& src = f.elab.ops[static_cast<std::size_t>(e.src)];
        const hls::ElabOp& dst = f.elab.ops[static_cast<std::size_t>(e.dst)];
        if (src.parent_loop != dst.parent_loop) continue;
        if (hls::sched_latency(fn, src) <= 0) continue;
        f.sched.op_cycle[static_cast<std::size_t>(e.dst)] =
            f.sched.op_cycle[static_cast<std::size_t>(e.src)];
        seeded = true;
        break;
    }
    ASSERT_TRUE(seeded);
    EXPECT_TRUE(analysis::check_schedule(fn, f.elab, f.sched).has("SCHED001"));
}

TEST(ScheduleCheck, Sched002FiresWhenIiDropsBelowMii) {
    // Unrolled pipelined gemm with unpartitioned arrays: memory ports bound
    // the II well above 1, so claiming II=1 must violate the resource MII.
    const ir::Function fn = kernels::build_polybench("gemm", 8);
    hls::Directives dirs;
    for (int l : fn.innermost_loops()) dirs.loops[l] = {4, true};
    Flow f = run_hls(fn, dirs);
    bool seeded = false;
    for (auto& ls : f.sched.loops)
        if (ls.pipelined && ls.ii > 1) {
            ls.ii = 1;
            seeded = true;
        }
    ASSERT_TRUE(seeded);
    EXPECT_TRUE(analysis::check_schedule(fn, f.elab, f.sched).has("SCHED002"));
}

TEST(ScheduleCheck, Sched003FiresOnOversubscribedBramBank) {
    const ir::Function fn = simple_kernel();
    hls::Directives dirs;
    dirs.loops[0] = {4, false}; // 4 replicas of each load, all on bank 0
    Flow f = run_hls(fn, dirs);
    // Collapse every replica of the A-loads into one cycle: 4 accesses on a
    // 2-port bank. Use the latest cycle so producer GEPs stay satisfied.
    std::vector<int> loads;
    int latest = 0;
    for (int o = 0; o < f.elab.num_ops(); ++o) {
        const hls::ElabOp& op = f.elab.ops[static_cast<std::size_t>(o)];
        if (op.op == ir::Opcode::Load && op.array == 0) {
            loads.push_back(o);
            latest = std::max(latest,
                              f.sched.op_cycle[static_cast<std::size_t>(o)]);
        }
    }
    ASSERT_GE(loads.size(), 3u);
    for (int o : loads) f.sched.op_cycle[static_cast<std::size_t>(o)] = latest;
    EXPECT_TRUE(analysis::check_schedule(fn, f.elab, f.sched).has("SCHED003"));
}

// --- graph checks -----------------------------------------------------------

TEST(GraphCheck, CleanConstructedGraphProducesNoDiagnostics) {
    const graphgen::Graph g = build_graph(kernels::build_polybench("gemm", 6));
    ASSERT_GT(g.num_nodes, 0);
    EXPECT_TRUE(analysis::check_graph(g).empty());
}

TEST(GraphCheck, Graph000FiresOnShapeMismatchAndShortCircuits) {
    graphgen::Graph g = build_graph(simple_kernel());
    g.num_nodes += 1; // feature matrix no longer matches
    const analysis::Report r = analysis::check_graph(g);
    EXPECT_TRUE(r.has("GRAPH000"));
    EXPECT_EQ(r.size(), 1);
}

TEST(GraphCheck, Graph001FiresOnOutOfRangeEndpoint) {
    graphgen::Graph g = build_graph(simple_kernel());
    graphgen::Graph::Edge e = g.edges.front();
    e.dst = g.num_nodes; // one past the end
    g.edges.push_back(e);
    EXPECT_TRUE(analysis::check_graph(g).has("GRAPH001"));
}

TEST(GraphCheck, Graph002FiresOnRelationClassMismatch) {
    graphgen::Graph g = build_graph(simple_kernel());
    g.edges.front().relation = (g.edges.front().relation + 1) %
                               graphgen::Graph::kNumRelations;
    EXPECT_TRUE(analysis::check_graph(g).has("GRAPH002"));

    graphgen::Graph h = build_graph(simple_kernel());
    h.edges.front().relation = 7; // out of range entirely
    EXPECT_TRUE(analysis::check_graph(h).has("GRAPH002"));
}

TEST(GraphCheck, Graph003FiresOnNonFiniteFeatures) {
    graphgen::Graph g = build_graph(simple_kernel());
    g.x[g.x.size() - 1] = kNaN; // last numeric feature of the last node
    EXPECT_TRUE(analysis::check_graph(g).has("GRAPH003"));

    graphgen::Graph h = build_graph(simple_kernel());
    h.edges.front().feat[0] = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(analysis::check_graph(h).has("GRAPH003"));
}

TEST(GraphCheck, Graph004FiresOnIsolatedNonBufferNode) {
    graphgen::Graph g = build_graph(simple_kernel());
    // Append an arithmetic-class node with no incident edges.
    g.num_nodes += 1;
    g.x.resize(g.x.size() + static_cast<std::size_t>(g.node_dim), 0.0f);
    g.x[g.x.size() - static_cast<std::size_t>(g.node_dim) +
        static_cast<std::size_t>(graphgen::NodeClass::Arithmetic)] = 1.0f;
    g.labels.push_back("ghost");
    const analysis::Report r = analysis::check_graph(g);
    EXPECT_TRUE(r.has("GRAPH004"));
    EXPECT_NE(r.render_text().find("ghost"), std::string::npos);
}

TEST(GraphCheck, Graph005FiresOnBrokenClassOneHot) {
    graphgen::Graph g = build_graph(simple_kernel());
    for (int k = 0; k < graphgen::kNumNodeClasses; ++k)
        g.x[static_cast<std::size_t>(k)] = 0.0f; // node 0: no class at all
    EXPECT_TRUE(analysis::check_graph(g).has("GRAPH005"));
    EXPECT_EQ(analysis::decode_node_class(g, 0), -1);
}

// --- NN / tensor checks -----------------------------------------------------

TEST(NnCheck, CleanTensorsProduceNoDiagnostics) {
    const gnn::GraphTensors t = tensors_of(build_graph(simple_kernel()));
    EXPECT_TRUE(analysis::check_tensors(t).empty());
}

TEST(NnCheck, Nn001FiresOnShapeDisagreement) {
    gnn::GraphTensors t = tensors_of(build_graph(simple_kernel()));
    t.num_nodes += 1; // x rows and inv_in_degree no longer agree
    EXPECT_TRUE(analysis::check_tensors(t).has("NN001"));

    gnn::GraphTensors u = tensors_of(build_graph(simple_kernel()));
    u.src.push_back(0); // flat view out of sync with per-relation views
    EXPECT_TRUE(analysis::check_tensors(u).has("NN001"));

    gnn::GraphTensors v = tensors_of(build_graph(simple_kernel()));
    ASSERT_FALSE(v.gcn_src.empty());
    v.gcn_src[0] = v.num_nodes + 5; // index past the node table
    EXPECT_TRUE(analysis::check_tensors(v).has("NN001"));
}

TEST(NnCheck, Nn002FiresOnNonFiniteInput) {
    gnn::GraphTensors t = tensors_of(build_graph(simple_kernel()));
    t.x.at(0, 0) = kNaN;
    EXPECT_TRUE(analysis::check_tensors(t).has("NN002"));

    gnn::GraphTensors u = tensors_of(build_graph(simple_kernel()));
    u.metadata.at(0, 0) = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(analysis::check_tensors(u).has("NN002"));
}

// --- end-to-end -------------------------------------------------------------

TEST(LintKernel, WholePolybenchSuiteIsDiagnosticFree) {
    // The ISSUE acceptance invariant behind `powergear_cli lint`: every
    // built-in kernel, sampled across design points, produces zero
    // diagnostics of any severity.
    analysis::LintOptions opts;
    opts.design_points = 3;
    for (const std::string& name : kernels::polybench_names()) {
        const ir::Function fn = kernels::build_polybench(name, 8);
        const analysis::Report r = analysis::lint_kernel(fn, opts);
        EXPECT_TRUE(r.empty()) << name << ":\n" << r.render_text();
    }
}

TEST(LintKernel, SurfacesSeededIrDefectWithKernelContext) {
    // A dead def is a warning, so lint_kernel keeps going — the defect must
    // still surface, stamped with the kernel name as context.
    Builder b("deadkern");
    const int out = b.array("out", {4});
    b.begin_loop("L0", 4);
    const int i = b.indvar();
    b.add(i, b.constant(3)); // never consumed
    b.store(out, {i}, i);
    b.end_loop();
    analysis::LintOptions opts;
    opts.design_points = 1;
    const analysis::Report r = analysis::lint_kernel(b.build(), opts);
    ASSERT_TRUE(r.has("IR001"));
    for (const analysis::Diagnostic& d : r.diagnostics())
        if (d.rule == "IR001") {
            EXPECT_EQ(d.context, "deadkern");
        }
}

TEST(LintIntegration, DatasetGenerationRejectsMalformedIr) {
    // Satellite of the lint subsystem: generation no longer ignores
    // validation — a structurally broken kernel is refused up front.
    ir::Function fn = simple_kernel();
    fn.top.clear(); // the loop becomes unreachable (IR002, an error)
    dataset::GeneratorOptions opts;
    opts.samples_per_dataset = 2;
    EXPECT_THROW(dataset::generate_dataset_for(fn, opts), std::runtime_error);
}
