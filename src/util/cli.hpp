// Declarative command-line parsing for the powergear CLI.
//
// Tools describe their surface once, as data: a table of OptionSpec rows
// (name, type, default, env fallback, which commands accept it) plus the
// command list. parse() turns argv into a Parsed handle that resolves each
// option through the same precedence everywhere:
//
//   command line  >  environment variable  >  spec default  >  call-site
//                                                              fallback
//
// Errors follow the CLI exit contract: anything wrong with the invocation
// itself (unknown command/option, missing value, a value that does not
// parse as the declared type, an option used with a command it does not
// apply to) throws UsageError, which main() reports and turns into exit 2;
// operational failures remain exit 1. Unknown options and commands come
// with a "did you mean" suggestion when an edit-distance-2 neighbour
// exists.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace powergear::util::cli {

/// Malformed invocation; callers report it with a usage hint and exit 2.
struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

enum class OptType {
    Flag,   ///< no value; present = "1"
    Int,    ///< strict integer (whole token must parse)
    Double, ///< strict finite floating point (no nan/inf)
    String, ///< free-form
};

struct OptionSpec {
    const char* name;          ///< option name without the leading "--"
    OptType type;
    const char* default_value; ///< textual default; "" = no default
    const char* env;           ///< env var fallback; "" = none
    /// Comma-separated commands this option applies to, or "*" for all.
    const char* commands;
    const char* help;          ///< one-line description for usage text
};

/// True when `spec` applies to `command` (exact match in the comma list,
/// or a "*" spec).
bool applies_to(const OptionSpec& spec, const std::string& command);

/// Classic edit distance; exposed for the suggestion tests.
std::size_t edit_distance(const std::string& a, const std::string& b);

/// Nearest candidate within edit distance 2 of `input`, or "" when nothing
/// is close enough (ties go to the earliest candidate).
std::string closest(const std::string& input,
                    std::span<const std::string> candidates);

/// A "--shard i/N" worker designation (1-based, i <= N).
struct ShardSpec {
    std::uint64_t index = 1;
    std::uint64_t count = 1;
};

/// Parse "i/N" strictly: both halves whole positive integers,
/// 1 <= i <= N. Throws UsageError (exit-2 contract) on anything else.
ShardSpec parse_shard(const std::string& text);

class Parsed {
public:
    const std::string& command() const { return command_; }
    const std::vector<std::string>& positional() const { return positional_; }

    /// True when the option was set explicitly — on the command line or
    /// through its (non-empty) environment fallback. Spec defaults do not
    /// count: use this to distinguish "user asked for X" from "X's default".
    bool has(const std::string& name) const;

    /// Resolved value through the full precedence chain; `fallback` wins
    /// only when nothing else supplies a value.
    std::string get(const std::string& name,
                    const std::string& fallback = "") const;
    int get_int(const std::string& name, int fallback) const;
    double get_double(const std::string& name, double fallback) const;
    /// Flag options: set anywhere in the chain?
    bool flag(const std::string& name) const;

private:
    friend Parsed parse(int argc, const char* const* argv,
                        std::span<const OptionSpec> specs,
                        std::span<const std::string> commands);

    const OptionSpec& spec_of(const std::string& name) const;

    std::string command_;
    std::vector<std::string> positional_;
    std::map<std::string, std::string> values_; ///< explicit command line
    std::vector<OptionSpec> specs_;
};

/// Parse argv[1..] as "<command> [--opt [value] | positional]...".
///
/// The command itself is not validated — callers decide what an unknown
/// command means (the powergear CLI prints usage and exits 1, preserving
/// its historical contract); option applicability is only enforced when
/// the command is one of `commands`. Throws UsageError on: an option not
/// in `specs` (with a "did you mean" hint when an edit-distance-2
/// neighbour exists), an option whose spec does not apply to the command,
/// a non-Flag option missing its value, or an Int/Double value that does
/// not fully parse.
Parsed parse(int argc, const char* const* argv,
             std::span<const OptionSpec> specs,
             std::span<const std::string> commands);

} // namespace powergear::util::cli
