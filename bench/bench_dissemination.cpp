/**
 * @file
 * Ablation A1 (Section 4.4.3): dissemination tree vs pure epidemic
 * for committed-update propagation.
 *
 * The paper organizes secondary replicas into application-level
 * multicast trees that push committed updates downward, with the
 * epidemic protocol as the gap-filler.  This ablation measures, for
 * growing secondary tiers, the time and bytes until *every* replica
 * holds a committed update when it is (a) pushed down the tree versus
 * (b) left to anti-entropy alone, plus (c) the invalidation-at-leaves
 * bandwidth saving for large updates.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "consistency/secondary.h"
#include "runner.h"
#include "runtime/fault.h"
#include "runtime/sim_runtime.h"

using namespace oceanstore;

namespace {

struct Result
{
    double seconds = -1.0;
    double kilobytes = 0.0;
    std::uint64_t events = 0;
};

Result
propagate(std::size_t replicas, bool tree_push, bool invalidate,
          std::size_t update_bytes, bool anti_entropy = true)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.05;
    Network net(sim, ncfg);

    Rng rng(0xd15e + replicas);
    std::vector<std::pair<double, double>> pos;
    for (std::size_t i = 0; i < replicas; i++)
        pos.emplace_back(rng.uniform(), rng.uniform());

    SecondaryConfig cfg;
    cfg.treePush = tree_push;
    cfg.invalidateAtLeaves = invalidate;
    cfg.antiEntropyPeriod = 0.5;
    SimRuntime rt(sim, net);
    SecondaryTier tier(rt, pos, cfg);
    if (anti_entropy)
        tier.startAntiEntropy();

    Guid obj = Guid::hashOf("bench-object");
    Update u;
    u.objectGuid = obj;
    UpdateClause clause;
    clause.actions.push_back(AppendBlock{Bytes(update_bytes, 0x77)});
    u.clauses.push_back(clause);
    u.timestamp = {1, 1};

    net.resetCounters();
    double start = sim.now();
    tier.injectCommitted(u, 1);

    Result out;
    const double deadline = anti_entropy ? 300.0 : 30.0;
    while (sim.now() < deadline) {
        sim.runUntil(sim.now() + 0.25);
        if (tier.allCommitted(obj, 1)) {
            out.seconds = sim.now() - start;
            break;
        }
    }
    if (!anti_entropy && out.seconds < 0)
        sim.runUntil(30.0); // fixed window for byte accounting
    tier.stopAntiEntropy();
    out.kilobytes = static_cast<double>(net.totalBytes()) / 1024.0;
    out.events = sim.eventsExecuted();
    return out;
}

} // namespace

static int
reportMain()
{
    std::printf("=== A1: dissemination tree vs pure epidemic ===\n\n");
    std::printf("time and bytes until ALL secondary replicas hold a "
                "4 kB committed update\n(anti-entropy period 0.5 s "
                "runs in both modes):\n\n");
    std::printf("%10s |  %22s |  %22s\n", "replicas",
                "tree push (Fig 5c)", "epidemic only");
    std::printf("%10s |  %10s %10s |  %10s %10s\n", "", "seconds",
                "kB", "seconds", "kB");

    for (std::size_t n : {16u, 32u, 64u, 128u, 256u}) {
        Result tree = propagate(n, true, false, 4096);
        Result epi = propagate(n, false, false, 4096);
        std::printf("%10zu |  %10.2f %10.0f |  %10.2f %10.0f\n", n,
                    tree.seconds, tree.kilobytes, epi.seconds,
                    epi.kilobytes);
    }
    std::printf("\n  expected shape: the tree delivers in "
                "O(depth) x link latency with one copy\n  per edge; "
                "anti-entropy alone takes many rounds and re-ships "
                "digests, growing\n  markedly worse with tier size -- "
                "why the paper builds dissemination trees.\n");

    // --- invalidation at the leaves ------------------------------------
    std::printf("\ninvalidation-at-leaves bandwidth (64 replicas):\n\n");
    std::printf("%12s | %14s | %18s\n", "update size", "full push kB",
                "invalidate-leaf kB");
    for (std::size_t bytes : {1u << 10, 16u << 10, 64u << 10,
                              256u << 10}) {
        Result full = propagate(64, true, false, bytes, false);
        Result inval = propagate(64, true, true, bytes, false);
        std::printf("%11zuk | %14.0f | %18.0f\n", bytes >> 10,
                    full.kilobytes, inval.kilobytes);
    }
    std::printf("\n  (Section 4.4.3: \"dissemination trees transform "
                "updates into invalidations\n   ... exploited at the "
                "leaves of the network where bandwidth is "
                "limited\")\n");
    return 0;
}

namespace {

/**
 * Event-loop throughput kernel: push @p updates committed versions
 * through a @p replicas-wide tier (tree push or epidemic-only) with
 * anti-entropy running, and measure only the event-processing region
 * (tier construction excluded).
 */
void
pushMany(bench::BenchContext &ctx, std::size_t replicas,
         int updates, bool tree_push, std::size_t update_bytes,
         bool arm_noop_injector = false)
{
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.05;
    Network net(sim, ncfg);
    SimRuntime rt(sim, net);

    // Bench guard for the fault-injection layer: with a default
    // (all-zero) FaultPlan armed, every send pays exactly one null
    // check plus a no-op verdict — comparing this case's p50 against
    // the plain tree_push case proves the hooks are free when off.
    std::unique_ptr<FaultInjector> inj;
    if (arm_noop_injector) {
        inj = std::make_unique<FaultInjector>(rt, FaultPlan{});
        inj->arm();
    }

    Rng rng(ctx.seed(0xd15e) + replicas);
    std::vector<std::pair<double, double>> pos;
    for (std::size_t i = 0; i < replicas; i++)
        pos.emplace_back(rng.uniform(), rng.uniform());

    SecondaryConfig cfg;
    cfg.treePush = tree_push;
    cfg.antiEntropyPeriod = 0.5;
    SecondaryTier tier(rt, pos, cfg);
    tier.startAntiEntropy();

    Guid obj = Guid::hashOf("bench-object");
    double done_s = -1.0;

    ctx.beginMeasured();
    std::uint64_t ev0 = sim.eventsExecuted();
    for (int v = 1; v <= updates; v++) {
        Update u;
        u.objectGuid = obj;
        UpdateClause clause;
        clause.actions.push_back(AppendBlock{Bytes(update_bytes, 0x77)});
        u.clauses.push_back(clause);
        u.timestamp = {static_cast<std::uint64_t>(v), 1};
        tier.injectCommitted(u, static_cast<VersionNum>(v));
        double deadline = sim.now() + (tree_push ? 30.0 : 120.0);
        while (sim.now() < deadline &&
               !tier.allCommitted(obj, static_cast<VersionNum>(v)))
            sim.runUntil(sim.now() + 0.25);
    }
    if (tier.allCommitted(obj, static_cast<VersionNum>(updates)))
        done_s = sim.now();
    ctx.addEvents(sim.eventsExecuted() - ev0);
    ctx.endMeasured();
    tier.stopAntiEntropy();

    ctx.metric("all_committed_s", "s", done_s);
    ctx.metric("bytes_kb", "kB",
               static_cast<double>(net.totalBytes()) / 1024.0);
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::BenchCase;
    using bench::BenchContext;
    std::vector<BenchCase> cases{
        {"tree_push",
         [](BenchContext &ctx) {
             pushMany(ctx, ctx.smoke() ? 16 : 128,
                      ctx.smoke() ? 2 : 40, true, 4096);
         }},
        {"epidemic",
         [](BenchContext &ctx) {
             pushMany(ctx, ctx.smoke() ? 8 : 64,
                      ctx.smoke() ? 2 : 10, false, 4096);
         }},
        {"tree_push_fault_hooks_off",
         [](BenchContext &ctx) {
             pushMany(ctx, ctx.smoke() ? 16 : 128,
                      ctx.smoke() ? 2 : 40, true, 4096,
                      /*arm_noop_injector=*/true);
         }},
    };
    return bench::runBenchMain(argc, argv, "bench_dissemination", cases,
                               [](int, char **) { return reportMain(); });
}
