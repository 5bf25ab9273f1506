// Minimal external consumer of the public API facade.
//
// Everything here comes through ONE include — <powergear/powergear.hpp> —
// exactly as an out-of-tree client would use an installed powergear
// (find_package(powergear CONFIG) + powergear::powergear). scripts/check.sh
// compiles this file against a scratch install tree to prove the facade and
// the export set are complete; it is also built in-tree like every example.
//
// Flow: generate two tiny datasets, train an ensemble on one, batch-
// estimate the other, and show where the serve client would slot in for a
// daemon-backed deployment.
#include <powergear/powergear.hpp>

#include <cmath>
#include <cstdio>

static_assert(POWERGEAR_API_VERSION == 3,
              "example written against API v3 — revisit on a version bump");

int main() {
    using namespace powergear;

    dataset::GeneratorOptions gen;
    gen.samples_per_dataset = 6;
    gen.problem_size = 8;
    const dataset::Dataset train_ds = dataset::generate_dataset("atax", gen);
    const dataset::Dataset test_ds = dataset::generate_dataset("bicg", gen);

    PowerGear::Options opts;
    opts.kind = dataset::PowerKind::Total;
    opts.hidden = 8;
    opts.epochs = 2;
    opts.folds = 2;
    opts.seeds = 1;
    PowerGear pg(opts);
    pg.fit(dataset::pool_of(train_ds));

    const SamplePool test = dataset::pool_of(test_ds);
    const std::vector<Estimate> ests = pg.estimate_batch(test);
    bool ok = ests.size() == test.size();
    for (std::size_t i = 0; i < ests.size(); ++i) {
        ok = ok && std::isfinite(ests[i].watts) &&
             std::isfinite(ests[i].member_spread) &&
             ests[i].member_spread >= 0.0;
        std::printf("design %zu: %.4f W (spread %.4f W)\n", i, ests[i].watts,
                    ests[i].member_spread);
    }
    std::printf("MAPE vs board labels: %.2f%%\n", pg.evaluate_mape(test));

    // Daemon-backed deployments swap the in-process estimator for the serve
    // pair, same facade header:
    //   serve::ServerConfig cfg{.socket_path = "/run/pg.sock",
    //                           .model_path = "model.pgm"};
    //   serve::Server server(cfg);   // or: powergear serve --model ...
    //   serve::Client client("/run/pg.sock");
    //   Estimate e = client.estimate(test[0]);
    return ok ? 0 : 1;
}
