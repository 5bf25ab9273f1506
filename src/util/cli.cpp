#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/env.hpp"

namespace powergear::util::cli {

namespace {

/// Strict full-token integer parse; UsageError names the option.
long long parse_int(const std::string& name, const std::string& text) {
    const char* s = text.c_str();
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        throw UsageError("option --" + name + " expects an integer (got '" +
                         text + "')");
    return v;
}

double parse_double(const std::string& name, const std::string& text) {
    const char* s = text.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    // strtod accepts "nan" and "inf"; no option means anything by them.
    if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v))
        throw UsageError("option --" + name +
                         " expects a finite number (got '" + text + "')");
    return v;
}

} // namespace

bool applies_to(const OptionSpec& spec, const std::string& command) {
    const std::string list = spec.commands ? spec.commands : "";
    if (list == "*") return true;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (list.compare(pos, end - pos, command) == 0 && end > pos)
            return true;
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return false;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({up + 1, row[j - 1] + 1,
                               diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

std::string closest(const std::string& input,
                    std::span<const std::string> candidates) {
    std::string best;
    std::size_t best_d = 3; // suggest only within edit distance 2
    for (const std::string& c : candidates) {
        const std::size_t d = edit_distance(input, c);
        if (d < best_d) {
            best_d = d;
            best = c;
        }
    }
    return best;
}

bool Parsed::has(const std::string& name) const {
    if (values_.count(name)) return true;
    const OptionSpec& spec = spec_of(name);
    return spec.env && *spec.env && !env_string(spec.env, "").empty();
}

std::string Parsed::get(const std::string& name,
                        const std::string& fallback) const {
    const auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    const OptionSpec& spec = spec_of(name);
    if (spec.env && *spec.env) {
        const std::string v = env_string(spec.env, "");
        if (!v.empty()) return v;
    }
    if (spec.default_value && *spec.default_value) return spec.default_value;
    return fallback;
}

int Parsed::get_int(const std::string& name, int fallback) const {
    const std::string v = get(name);
    if (v.empty()) return fallback;
    return static_cast<int>(parse_int(name, v));
}

double Parsed::get_double(const std::string& name, double fallback) const {
    const std::string v = get(name);
    if (v.empty()) return fallback;
    return parse_double(name, v);
}

bool Parsed::flag(const std::string& name) const {
    return !get(name).empty();
}

const OptionSpec& Parsed::spec_of(const std::string& name) const {
    for (const OptionSpec& s : specs_)
        if (name == s.name) return s;
    // A getter for an undeclared option is a programming error in the
    // tool, not user input — fail loudly either way.
    throw UsageError("internal: option --" + name + " is not declared");
}

ShardSpec parse_shard(const std::string& text) {
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size() || text.find('/', slash + 1) != std::string::npos)
        throw UsageError("--shard expects i/N (e.g. 1/4), got '" + text + "'");
    const long long i = parse_int("shard", text.substr(0, slash));
    const long long n = parse_int("shard", text.substr(slash + 1));
    if (i < 1 || n < 1 || i > n)
        throw UsageError("--shard " + text +
                         ": worker index must satisfy 1 <= i <= N");
    return ShardSpec{static_cast<std::uint64_t>(i),
                     static_cast<std::uint64_t>(n)};
}

Parsed parse(int argc, const char* const* argv,
             std::span<const OptionSpec> specs,
             std::span<const std::string> commands) {
    Parsed p;
    p.specs_.assign(specs.begin(), specs.end());
    if (argc >= 2) p.command_ = argv[1];
    const bool known_command =
        std::find(commands.begin(), commands.end(), p.command_) !=
        commands.end();

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            p.positional_.push_back(arg);
            continue;
        }
        const std::string key = arg.substr(2);
        const OptionSpec* spec = nullptr;
        for (const OptionSpec& s : specs)
            if (key == s.name) {
                spec = &s;
                break;
            }
        if (!spec) {
            std::vector<std::string> names;
            for (const OptionSpec& s : specs)
                if (!known_command || applies_to(s, p.command_))
                    names.push_back(s.name);
            const std::string hint = closest(key, names);
            throw UsageError("unknown option --" + key +
                             (hint.empty() ? "" : " (did you mean --" + hint +
                                                      "?)"));
        }
        if (known_command && !applies_to(*spec, p.command_))
            throw UsageError("option --" + key + " does not apply to '" +
                             p.command_ + "'");
        if (spec->type == OptType::Flag) {
            // std::string, not a literal: GCC 12's -Wrestrict misfires on
            // insert_or_assign from a char array.
            p.values_.insert_or_assign(key, std::string("1"));
            continue;
        }
        // "--key value": a trailing option or one followed by another
        // option is missing its value — error out instead of quietly
        // parsing a bogus placeholder.
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)
            throw UsageError("option --" + key + " requires a value");
        const std::string value = argv[++i];
        // Validate typed values at parse time so a typo fails before any
        // work starts, not at first use.
        if (spec->type == OptType::Int) parse_int(key, value);
        if (spec->type == OptType::Double) parse_double(key, value);
        p.values_.insert_or_assign(key, value);
    }
    return p;
}

} // namespace powergear::util::cli
