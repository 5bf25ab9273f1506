#include "analysis/diagnostic.hpp"

#include <sstream>
#include <stdexcept>

namespace powergear::analysis {

const char* severity_name(Severity s) {
    switch (s) {
        case Severity::Note: return "note";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "?";
}

const std::vector<RuleInfo>& rule_registry() {
    static const std::vector<RuleInfo> rules = {
        // --- IR lint (src/analysis/ir_lint) --------------------------------
        {"IR000", Severity::Error,
         "structural verifier failure (ir::verify rejected the function)"},
        {"IR001", Severity::Warning,
         "dead definition: value-producing instruction whose result is never used"},
        {"IR002", Severity::Error,
         "unreachable loop: loop is not a body item of its parent region"},
        {"IR003", Severity::Warning,
         "silent bitwidth narrowing: arithmetic result narrower than an operand"},
        {"IR004", Severity::Warning,
         "store-to-never-read: internal array is written but never loaded"},
        {"IR005", Severity::Warning, "empty loop: body has no instructions"},
        // --- dataflow checkers (src/analysis/df_check) ---------------------
        {"DF001", Severity::Error,
         "array index out of bounds: index value range exceeds the declared extent"},
        {"DF002", Severity::Error,
         "use before def: load may read internal storage before any store reaches it"},
        {"DF003", Severity::Warning,
         "dead code: register store never observed, or block unreachable from entry"},
        {"DF004", Severity::Error,
         "recurrence MII mismatch: dataflow-derived MII disagrees with the scheduler"},
        // --- schedule validator (src/analysis/schedule_check) --------------
        {"SCHED000", Severity::Error,
         "malformed schedule: op_cycle/loop tables disagree with the design"},
        {"SCHED001", Severity::Error,
         "data-dependence violation: consumer issues before producer finishes"},
        {"SCHED002", Severity::Error,
         "pipelined II below the recurrence/resource minimum II"},
        {"SCHED003", Severity::Error,
         "BRAM port oversubscription: >2 accesses to one bank in one cycle"},
        // --- graph validator (src/analysis/graph_check) --------------------
        {"GRAPH000", Severity::Error,
         "malformed graph: node/feature table shapes disagree"},
        {"GRAPH001", Severity::Error, "edge endpoint out of node range"},
        {"GRAPH002", Severity::Error,
         "edge relation inconsistent with endpoint node classes"},
        {"GRAPH003", Severity::Error, "non-finite node or edge feature"},
        {"GRAPH004", Severity::Warning,
         "isolated non-buffer node survived graph trimming"},
        {"GRAPH005", Severity::Error,
         "node class one-hot block is not a valid one-hot encoding"},
        // --- NN / tensor checks (src/analysis/nn_check) --------------------
        {"NN001", Severity::Error,
         "tensor shape disagreement inside a GraphTensors sample"},
        {"NN002", Severity::Error, "non-finite value in an input tensor"},
        // --- public API configuration (core::PowerGear::Options) -----------
        {"API001", Severity::Error, "non-positive training epoch count"},
        {"API002", Severity::Error,
         "ensemble would train no members (folds and seeds both < 1)"},
        {"API003", Severity::Error, "dropout probability outside [0, 1)"},
        {"API004", Severity::Error, "non-positive learning rate"},
        {"API005", Severity::Error, "non-positive mini-batch size"},
        {"API006", Severity::Error,
         "non-positive hidden width or conv layer count"},
    };
    return rules;
}

const RuleInfo* rule_info(std::string_view id) {
    for (const RuleInfo& r : rule_registry())
        if (id == r.id) return &r;
    return nullptr;
}

void Report::add(std::string rule, std::string artifact, int index,
                 std::string message) {
    Diagnostic d;
    const RuleInfo* info = rule_info(rule);
    d.severity = info ? info->severity : Severity::Error;
    d.rule = std::move(rule);
    d.artifact = std::move(artifact);
    d.index = index;
    d.message = std::move(message);
    diags_.push_back(std::move(d));
}

void Report::add(Diagnostic d) { diags_.push_back(std::move(d)); }

void Report::merge(const Report& other) {
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

void Report::set_context(const std::string& context) {
    for (Diagnostic& d : diags_)
        if (d.context.empty()) d.context = context;
}

int Report::errors() const {
    int n = 0;
    for (const Diagnostic& d : diags_)
        if (d.severity == Severity::Error) ++n;
    return n;
}

int Report::warnings() const {
    int n = 0;
    for (const Diagnostic& d : diags_)
        if (d.severity == Severity::Warning) ++n;
    return n;
}

int Report::count(std::string_view rule) const {
    int n = 0;
    for (const Diagnostic& d : diags_)
        if (d.rule == rule) ++n;
    return n;
}

std::string Report::render_text() const {
    std::ostringstream os;
    for (const Diagnostic& d : diags_) {
        os << severity_name(d.severity) << '[' << d.rule << ']';
        if (!d.context.empty()) os << ' ' << d.context << ':';
        if (!d.artifact.empty()) {
            os << ' ' << d.artifact;
            if (d.index >= 0) os << ' ' << d.index;
            os << ':';
        }
        os << ' ' << d.message << '\n';
    }
    return os.str();
}

namespace {

void json_escape(std::ostringstream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20)
                    os << ' '; // control chars never appear in our messages
                else
                    os << c;
        }
    }
    os << '"';
}

} // namespace

std::string Report::render_json() const {
    std::ostringstream os;
    os << "{\"diagnostics\":[";
    bool first = true;
    for (const Diagnostic& d : diags_) {
        if (!first) os << ',';
        first = false;
        os << "{\"rule\":";
        json_escape(os, d.rule);
        os << ",\"severity\":\"" << severity_name(d.severity) << '"';
        os << ",\"context\":";
        json_escape(os, d.context);
        os << ",\"artifact\":";
        json_escape(os, d.artifact);
        os << ",\"index\":" << d.index;
        os << ",\"message\":";
        json_escape(os, d.message);
        os << '}';
    }
    os << "],\"errors\":" << errors() << ",\"warnings\":" << warnings()
       << ",\"total\":" << size() << '}';
    return os.str();
}

void require_clean(const Report& report, const std::string& what) {
    if (report.clean()) return;
    throw std::runtime_error(what + ": " + std::to_string(report.errors()) +
                             " analysis error(s)\n" + report.render_text());
}

} // namespace powergear::analysis
