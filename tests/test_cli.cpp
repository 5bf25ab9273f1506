// util::cli tests: declarative option table parsing, precedence (command
// line > env > spec default > call-site fallback), per-command
// applicability, type validation at parse time, and unknown-flag
// suggestions.
#include <gtest/gtest.h>

#include <cstdlib>

#include "util/cli.hpp"

using namespace powergear::util;

namespace {

constexpr cli::OptionSpec kSpecs[] = {
    {"kernel", cli::OptType::String, "gemm", "", "gen,estimate", "kernel"},
    {"samples", cli::OptType::Int, "24", "", "gen", "sample count"},
    {"budget", cli::OptType::Double, "0.4", "", "dse", "budget"},
    {"json", cli::OptType::Flag, "", "", "gen", "JSON output"},
    {"metrics", cli::OptType::String, "", "PGTEST_METRICS", "*", "metrics"},
};

const std::vector<std::string> kCommands = {"gen", "estimate", "dse"};

cli::Parsed parse(std::initializer_list<const char*> argv) {
    std::vector<const char*> v{"powergear"};
    v.insert(v.end(), argv.begin(), argv.end());
    return cli::parse(static_cast<int>(v.size()), v.data(), kSpecs,
                      std::span<const std::string>(kCommands));
}

/// RAII env var for the fallback tests.
struct ScopedEnv {
    std::string name;
    ScopedEnv(const char* n, const char* value) : name(n) {
        ::setenv(n, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

} // namespace

TEST(Cli, ResolvesPrecedenceCommandLineOverEnvOverDefault) {
    ScopedEnv env("PGTEST_METRICS", "from_env.json");
    const cli::Parsed explicit_win =
        parse({"gen", "--metrics", "cli.json", "--samples", "7"});
    EXPECT_EQ(explicit_win.get("metrics"), "cli.json");
    EXPECT_EQ(explicit_win.get_int("samples", -1), 7);

    const cli::Parsed env_win = parse({"gen"});
    EXPECT_EQ(env_win.get("metrics"), "from_env.json");
    EXPECT_TRUE(env_win.has("metrics")); // env counts as explicitly set

    // Spec default, then call-site fallback.
    EXPECT_EQ(env_win.get("kernel"), "gemm");
    EXPECT_FALSE(env_win.has("kernel")); // defaults are not "set"
    EXPECT_EQ(env_win.get_int("samples", -1), 24);
}

TEST(Cli, FlagsPositionalsAndCommand) {
    const cli::Parsed p = parse({"gen", "pos1", "--json", "pos2"});
    EXPECT_EQ(p.command(), "gen");
    EXPECT_TRUE(p.flag("json"));
    ASSERT_EQ(p.positional().size(), 2u);
    EXPECT_EQ(p.positional()[0], "pos1");
    EXPECT_EQ(p.positional()[1], "pos2");
    EXPECT_FALSE(parse({"gen"}).flag("json"));
}

TEST(Cli, TypeValidationAtParseTime) {
    EXPECT_THROW(parse({"gen", "--samples", "many"}), cli::UsageError);
    EXPECT_THROW(parse({"dse", "--budget", "0.4x"}), cli::UsageError);
    EXPECT_NO_THROW(parse({"dse", "--budget", "0.5"}));
    // strtod parses these, but no option has a meaning for them.
    EXPECT_THROW(parse({"dse", "--budget", "nan"}), cli::UsageError);
    EXPECT_THROW(parse({"dse", "--budget", "inf"}), cli::UsageError);
    EXPECT_THROW(parse({"gen", "--samples"}), cli::UsageError); // no value
    // A value that looks like an option is a missing value, not a value.
    EXPECT_THROW(parse({"gen", "--kernel", "--json"}), cli::UsageError);
}

TEST(Cli, ApplicabilityEnforcedPerCommand) {
    EXPECT_NO_THROW(parse({"gen", "--samples", "5"}));
    try {
        parse({"estimate", "--samples", "5"});
        FAIL() << "--samples must not apply to estimate";
    } catch (const cli::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("does not apply"),
                  std::string::npos);
    }
    // "*" applies everywhere; unknown commands skip the applicability check
    // (the caller rejects the command itself).
    EXPECT_NO_THROW(parse({"dse", "--metrics", "m.json"}));
    EXPECT_NO_THROW(parse({"bogus", "--samples", "5"}));
}

TEST(Cli, UnknownOptionSuggestsNearestName) {
    try {
        parse({"gen", "--sampels", "5"});
        FAIL() << "unknown option accepted";
    } catch (const cli::UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("did you mean --samples"),
                  std::string::npos)
            << e.what();
    }
    // Nothing within distance 2: no misleading suggestion.
    try {
        parse({"gen", "--frobnicate"});
        FAIL() << "unknown option accepted";
    } catch (const cli::UsageError& e) {
        EXPECT_EQ(std::string(e.what()).find("did you mean"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Cli, EditDistanceAndClosest) {
    EXPECT_EQ(cli::edit_distance("kitten", "sitting"), 3u);
    EXPECT_EQ(cli::edit_distance("", "abc"), 3u);
    EXPECT_EQ(cli::edit_distance("same", "same"), 0u);
    const std::vector<std::string> cands = {"serve", "estimate", "gen"};
    EXPECT_EQ(cli::closest("sevre", cands), "serve");
    EXPECT_EQ(cli::closest("zzzzzz", cands), "");
}
