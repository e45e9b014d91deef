/**
 * @file
 * Runtime conformance suite (DESIGN.md section 15).
 *
 * One parameterized set of behavioral contracts run against BOTH
 * backends: the deterministic SimRuntime adapter and — when the tree
 * is built with OCEANSTORE_THREADED — the real ThreadedRuntime.  The
 * contracts are ported from the simulated-network tests (self-send
 * asynchrony and FIFO, per-link FIFO, multicast delivery accounting)
 * plus the timer/clock guarantees protocol code leans on, so a
 * backend that passes here can host the protocol tiers unmodified.
 *
 * Threaded cases use generous wall-clock budgets; predicates that
 * read handler state are evaluated through Runtime::runUntil, which
 * checks them on the strand, so no extra synchronization is needed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifdef OCEANSTORE_THREADED
#include <atomic>
#include <chrono>
#include <thread>
#endif

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/fault.h"
#include "runtime/framing.h"
#include "runtime/sim_runtime.h"
#include "runtime/stats.h"
#include "runtime/threaded_runtime.h"

namespace oceanstore {
namespace {

/** Records every delivered message (handlers run on the strand). */
class Sink : public SimNode
{
  public:
    void
    handleMessage(const Message &msg) override
    {
        received.push_back(msg);
    }

    std::vector<Message> received;
};

/** A backend under test: owns the runtime and its substrate. */
struct Backend
{
    virtual ~Backend() = default;
    virtual Runtime &rt() = 0;
    /** Stop all callback sources (before the test's nodes die). */
    virtual void stop() {}
};

struct SimBackend final : Backend
{
    SimBackend() : net(sim, netCfg()), r(sim, net, 0x5eedu) {}

    static NetworkConfig
    netCfg()
    {
        NetworkConfig cfg;
        cfg.jitter = 0.0;
        cfg.bandwidth = 0.0; // infinite
        cfg.dropRate = 0.0;
        return cfg;
    }

    Runtime &rt() override { return r; }

    Simulator sim;
    Network net;
    SimRuntime r;
};

struct ThreadedBackend final : Backend
{
    ThreadedBackend() : r(quickCfg()) {}

    static ThreadedConfig
    quickCfg()
    {
        ThreadedConfig cfg;
        cfg.workers = 4;
        cfg.seed = 0x5eedu;
        return cfg;
    }

    Runtime &rt() override { return r; }
    void stop() override { r.shutdown(); }

    ThreadedRuntime r;
};

/** Wall/sim seconds each test may spend driving the runtime. */
constexpr double kBudget = 20.0;

class RuntimeConformance
    : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        if (std::string(GetParam()) == "threaded") {
            if (!ThreadedRuntime::available())
                GTEST_SKIP()
                    << "threaded backend needs OCEANSTORE_THREADED";
            be_ = std::make_unique<ThreadedBackend>();
        } else {
            be_ = std::make_unique<SimBackend>();
        }
        a_ = rt().addNode(&na_, 0.0, 0.0);
        b_ = rt().addNode(&nb_, 1.0, 0.0);
        c_ = rt().addNode(&nc_, 0.0, 1.0);
    }

    void
    TearDown() override
    {
        if (be_)
            be_->stop(); // threads die before the sinks do
    }

    Runtime &rt() { return be_->rt(); }

    /** Drive until @p pred holds; fail the test on timeout. */
    bool
    drive(const std::function<bool()> &pred)
    {
        return rt().runUntil(pred, rt().now() + kBudget);
    }

    Sink na_, nb_, nc_;
    NodeId a_{}, b_{}, c_{};
    std::unique_ptr<Backend> be_;
};

TEST_P(RuntimeConformance, SelfSendStillAsynchronous)
{
    // Delivery must never run inside send(): the strand (or the sim
    // event loop) is held across this whole block, so any inline
    // delivery would land in received before the check.
    bool delivered_inline = true;
    rt().execute([&]() {
        rt().send(a_, a_, makeMessage("t", 1, 1));
        delivered_inline = !na_.received.empty();
    });
    EXPECT_FALSE(delivered_inline);
    EXPECT_TRUE(drive([&]() { return na_.received.size() == 1; }));
}

TEST_P(RuntimeConformance, SelfSendsDeliverInFifoOrder)
{
    // Equal-latency messages on one link must arrive in send order
    // (the sim breaks timestamp ties FIFO; the threaded transport
    // keeps one FIFO queue per link).
    rt().execute([&]() {
        for (int i = 0; i < 8; i++)
            rt().send(a_, a_, makeMessage("t", i, 1));
    });
    ASSERT_TRUE(drive([&]() { return na_.received.size() == 8; }));
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(messageBody<int>(na_.received[i]), i);
}

TEST_P(RuntimeConformance, PerLinkSendsNeverReorder)
{
    rt().execute([&]() {
        for (int i = 0; i < 16; i++)
            rt().send(a_, b_, makeMessage("t", i, 64));
    });
    ASSERT_TRUE(drive([&]() { return nb_.received.size() == 16; }));
    for (int i = 0; i < 16; i++)
        EXPECT_EQ(messageBody<int>(nb_.received[i]), i);
}

TEST_P(RuntimeConformance, MulticastDeliversOncePerDestination)
{
    std::uint64_t msgs0 = rt().totalMessages();
    std::uint64_t bytes0 = rt().totalBytes();
    rt().execute([&]() {
        rt().multicast(a_, {b_, c_, a_}, makeMessage("m", 7, 10));
    });
    ASSERT_TRUE(drive([&]() {
        return na_.received.size() == 1 && nb_.received.size() == 1 &&
               nc_.received.size() == 1;
    }));
    // Accounting is per destination: three sends' worth of messages
    // and bytes, even though the payload is stored once.
    EXPECT_EQ(rt().totalMessages() - msgs0, 3u);
    std::uint64_t per_dest = (rt().totalBytes() - bytes0) / 3;
    EXPECT_GT(per_dest, 0u);
    EXPECT_EQ((rt().totalBytes() - bytes0) % 3, 0u);
    EXPECT_EQ(messageBody<int>(nb_.received[0]), 7);
}

TEST_P(RuntimeConformance, DownDestinationLosesMessageButCountsBytes)
{
    std::uint64_t bytes0 = rt().totalBytes();
    rt().setDown(b_);
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 1, 10));
    });
    // The flight resolves (dropped at arrival) without a delivery;
    // bytes were still charged at send time — the sender cannot know.
    ASSERT_TRUE(drive([&]() { return rt().inFlight() == 0; }));
    EXPECT_TRUE(nb_.received.empty());
    EXPECT_GT(rt().totalBytes(), bytes0);
    rt().setUp(b_);
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 2, 10));
    });
    EXPECT_TRUE(drive([&]() { return nb_.received.size() == 1; }));
}

// ---------------------------------------------------------------------
// Faults: both backends take every link decision from one LinkModel,
// so a FaultInjector armed through the Runtime acts the same on each.

TEST_P(RuntimeConformance, FaultDropLosesEverySendAndMulticastLeg)
{
    FaultPlan plan;
    plan.drop = 1.0;
    FaultInjector inj(rt(), plan);
    inj.arm();
    std::uint64_t msgs0 = rt().totalMessages();
    std::uint64_t bytes0 = rt().totalBytes();
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 1, 10));
        rt().multicast(a_, {b_, c_, a_}, makeMessage("m", 2, 10));
    });
    ASSERT_TRUE(drive([&]() { return rt().inFlight() == 0; }));
    // Bytes are charged at send time for every leg, lost or not.
    EXPECT_EQ(rt().totalMessages() - msgs0, 4u);
    EXPECT_EQ(rt().totalBytes() - bytes0,
              4u * (10 + messageHeaderBytes));

    // Once disarmed, markers flow on the same links.  Links are
    // FIFO, so a dropped message would have arrived before them.
    inj.disarm();
    rt().execute([&]() {
        rt().multicast(a_, {b_, c_, a_}, makeMessage("m", 3, 10));
    });
    ASSERT_TRUE(drive([&]() {
        return na_.received.size() == 1 && nb_.received.size() == 1 &&
               nc_.received.size() == 1;
    }));
    EXPECT_EQ(messageBody<int>(na_.received[0]), 3);
    EXPECT_EQ(messageBody<int>(nb_.received[0]), 3);
    EXPECT_EQ(messageBody<int>(nc_.received[0]), 3);
    rt().execute([&]() {
        EXPECT_EQ(inj.dropped(), 4u);
        EXPECT_EQ(inj.inspected(), 4u);
    });
}

TEST_P(RuntimeConformance, FaultDuplicateDeliversTwiceInLinkOrder)
{
    FaultPlan plan;
    plan.duplicate = 1.0;
    FaultInjector inj(rt(), plan);
    inj.arm();
    rt().execute([&]() {
        for (int i = 0; i < 8; i++)
            rt().send(a_, b_, makeMessage("t", i, 64));
    });
    ASSERT_TRUE(drive([&]() { return nb_.received.size() == 16; }));
    ASSERT_TRUE(drive([&]() { return rt().inFlight() == 0; }));
    // Every message arrives exactly twice; the first copies arrive in
    // send order, and so do the second copies.
    std::vector<int> copies(8, 0), first, second;
    for (const Message &m : nb_.received) {
        int i = messageBody<int>(m);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, 8);
        (copies[i]++ == 0 ? first : second).push_back(i);
    }
    std::vector<int> inOrder{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(first, inOrder);
    EXPECT_EQ(second, inOrder);
    rt().execute([&]() { EXPECT_EQ(inj.duplicated(), 8u); });
}

TEST_P(RuntimeConformance, PartitionBlocksBothDirectionsUntilHealed)
{
    rt().setPartition(b_, 1);
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 1, 10));
        rt().send(b_, a_, makeMessage("t", 2, 10));
        rt().send(a_, c_, makeMessage("t", 3, 10)); // same side
    });
    ASSERT_TRUE(drive([&]() { return rt().inFlight() == 0; }));
    EXPECT_TRUE(nb_.received.empty());
    EXPECT_TRUE(na_.received.empty());
    ASSERT_EQ(nc_.received.size(), 1u);

    rt().healPartitions();
    rt().execute([&]() {
        rt().send(a_, b_, makeMessage("t", 4, 10));
        rt().send(b_, a_, makeMessage("t", 5, 10));
    });
    ASSERT_TRUE(drive([&]() {
        return nb_.received.size() == 1 && na_.received.size() == 1;
    }));
    EXPECT_EQ(messageBody<int>(nb_.received[0]), 4);
    EXPECT_EQ(messageBody<int>(na_.received[0]), 5);
}

TEST_P(RuntimeConformance, TimersFireInDeadlineOrder)
{
    std::vector<int> order;
    rt().execute([&]() {
        rt().schedule(0.09, [&order]() { order.push_back(3); });
        rt().schedule(0.03, [&order]() { order.push_back(1); });
        rt().schedule(0.06, [&order]() { order.push_back(2); });
        rt().schedule(0.0, [&order]() { order.push_back(0); });
    });
    ASSERT_TRUE(drive([&]() { return order.size() == 4; }));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(RuntimeConformance, TimersNeverFireBeforeTheirDeadline)
{
    // Sub-tick delays on the threaded backend: a wheel that rounds
    // deadlines to its tick would run some of these early.
    constexpr int kTimers = 8;
    int fired = 0;
    bool early = false;
    for (int i = 0; i < kTimers; i++) {
        double delay = 0.0001 * (i + 1);
        double due = rt().now() + delay;
        rt().schedule(delay, [&, due]() {
            early = early || rt().now() < due;
            fired++;
        });
        ASSERT_TRUE(drive([&]() { return fired == i + 1; }));
    }
    EXPECT_FALSE(early);
}

TEST_P(RuntimeConformance, CancelledTimerNeverFires)
{
    bool cancelled_fired = false;
    bool marker_fired = false;
    rt().execute([&]() {
        EventId id = rt().schedule(
            0.05, [&cancelled_fired]() { cancelled_fired = true; });
        rt().cancel(id);
        rt().schedule(0.15, [&marker_fired]() { marker_fired = true; });
    });
    ASSERT_TRUE(drive([&]() { return marker_fired; }));
    EXPECT_FALSE(cancelled_fired);
}

TEST_P(RuntimeConformance, CancelFromCoDueCallbackPreventsFiring)
{
    // Two timers due at the same instant: the first cancels the
    // second after both may already have left the timer wheel for
    // the task queue (threaded backend).  RpcCall destructors and
    // the failure detectors rely on cancel-prevents-fire in exactly
    // this window — a fired-but-not-run victim must stay dead.
    bool cancelled_fired = false;
    bool marker_fired = false;
    EventId victim = invalidEventId;
    rt().execute([&]() {
        // Canceller scheduled first so it wins the same-deadline
        // tie-break and runs before its co-due victim.
        rt().schedule(0.02, [&]() { rt().cancel(victim); });
        victim = rt().schedule(
            0.02, [&cancelled_fired]() { cancelled_fired = true; });
        rt().schedule(0.2,
                      [&marker_fired]() { marker_fired = true; });
    });
    ASSERT_TRUE(drive([&]() { return marker_fired; }));
    EXPECT_FALSE(cancelled_fired);
}

TEST_P(RuntimeConformance, PostRunsAfterAlreadyQueuedWork)
{
    std::vector<int> order;
    rt().execute([&]() {
        rt().post([&order]() { order.push_back(0); });
        rt().post([&order]() { order.push_back(1); });
    });
    ASSERT_TRUE(drive([&]() { return order.size() == 2; }));
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST_P(RuntimeConformance, ClockIsMonotoneAcrossCallbacks)
{
    std::vector<double> stamps;
    bool done = false;
    std::function<void()> step = [&]() {
        stamps.push_back(rt().now());
        if (stamps.size() >= 10) {
            done = true;
            return;
        }
        rt().schedule(0.002, [&step]() { step(); });
    };
    rt().execute([&]() { rt().schedule(0.0, [&step]() { step(); }); });
    ASSERT_TRUE(drive([&]() { return done; }));
    for (std::size_t i = 1; i < stamps.size(); i++)
        EXPECT_GE(stamps[i], stamps[i - 1]);
}

TEST_P(RuntimeConformance, GeometryAndLivenessAccessors)
{
    EXPECT_EQ(rt().nodeCount(), 3u);
    EXPECT_DOUBLE_EQ(rt().xOf(b_), 1.0);
    EXPECT_DOUBLE_EQ(rt().yOf(c_), 1.0);
    EXPECT_DOUBLE_EQ(rt().distance(a_, b_), 1.0);
    EXPECT_GT(rt().latency(a_, b_), rt().latency(a_, a_));
    EXPECT_DOUBLE_EQ(rt().latency(a_, b_), rt().latency(b_, a_));
    EXPECT_TRUE(rt().isUp(a_));
    rt().setDown(a_);
    EXPECT_FALSE(rt().isUp(a_));
    rt().setUp(a_);
    EXPECT_TRUE(rt().isUp(a_));
}

TEST_P(RuntimeConformance, MixSeedIsStableAndSaltSensitive)
{
    // Identical on both backends (both were built with base seed
    // 0x5eed), so seeded components replay across runtimes.
    EXPECT_EQ(rt().mixSeed(42), mixSeed64(0x5eedu, 42));
    EXPECT_NE(rt().mixSeed(1), rt().mixSeed(2));
    EXPECT_EQ(rt().mixSeed(7), rt().mixSeed(7));
}

TEST_P(RuntimeConformance, UniqueStampIsMonotone)
{
    std::uint64_t s0 = rt().uniqueStamp();
    bool fired = false;
    rt().execute([&]() {
        rt().schedule(0.0, [&fired]() { fired = true; });
    });
    ASSERT_TRUE(drive([&]() { return fired; }));
    EXPECT_GE(rt().uniqueStamp(), s0);
}

TEST_P(RuntimeConformance, TraceContextPropagatesThroughBackend)
{
    // The observability contract (DESIGN.md section 16): a timer, a
    // posted task and a delivered message all run inside the trace
    // context of the code that scheduled/sent them, on BOTH backends.
    Tracer tracer;
    TraceContext timerCtx, postCtx, deliveredCtx;
    bool timerDone = false, postDone = false;
    {
        TraceScope scope(tracer);
        rt().execute([&]() {
            std::uint32_t root =
                tracer.beginLocalSpan("test", "root", rt().now());
            rt().send(a_, b_, makeMessage("t.msg", 1, 32));
            rt().schedule(0.01, [&]() {
                timerCtx = tracer.current();
                timerDone = true;
            });
            rt().post([&]() {
                postCtx = tracer.current();
                postDone = true;
            });
            tracer.endLocalSpan(root, rt().now());
        });
        ASSERT_TRUE(drive([&]() {
            return nb_.received.size() == 1 && timerDone && postDone;
        }));
        rt().execute([&]() { deliveredCtx = nb_.received[0].trace; });
    }

    auto spans = tracer.buffer().snapshot();
    const SpanRecord *rootSpan = nullptr;
    const SpanRecord *msgSpan = nullptr;
    for (const SpanRecord &r : spans) {
        if (tracer.internedString(r.name) == "root")
            rootSpan = &r;
        if (tracer.internedString(r.name) == "t.msg")
            msgSpan = &r;
    }
    ASSERT_NE(rootSpan, nullptr);
    ASSERT_NE(msgSpan, nullptr);
    // The send span parents under the root scope, and the delivered
    // message carried exactly that span as its causal context.
    EXPECT_EQ(msgSpan->parent, rootSpan->spanId);
    EXPECT_EQ(msgSpan->kind, SpanKind::Send);
    EXPECT_GE(msgSpan->end, msgSpan->start);
    EXPECT_EQ(deliveredCtx.traceId, msgSpan->traceId);
    EXPECT_EQ(deliveredCtx.spanId, msgSpan->spanId);
    // Timer and post callbacks ran inside the root's context.
    EXPECT_EQ(timerCtx.traceId, rootSpan->traceId);
    EXPECT_EQ(timerCtx.spanId, rootSpan->spanId);
    EXPECT_EQ(postCtx.traceId, rootSpan->traceId);
    EXPECT_EQ(postCtx.spanId, rootSpan->spanId);
}

TEST_P(RuntimeConformance, StatsExposeLiveBackendHealth)
{
    bool fired = false;
    rt().execute([&]() {
        rt().schedule(5.0, []() {}); // stays pending past the test
        rt().send(a_, b_, makeMessage("t", 1, 32));
        RuntimeStats mid = rt().stats();
        EXPECT_GE(mid.timersPending, 1u);
        EXPECT_GE(mid.linkQueuedMessages, 1u);
        if (!rt().deterministic()) {
            // Threaded-only surfaces: wheel occupancy, per-link
            // queues, the worker pool.
            EXPECT_GE(mid.wheelSlotsOccupied, 1u);
            EXPECT_GE(mid.linksActive, 1u);
            EXPECT_GT(mid.linkQueuedBytes, 0u);
            EXPECT_EQ(mid.workers, 4u);
        }
        rt().schedule(0.0, [&]() { fired = true; });
    });
    ASSERT_TRUE(
        drive([&]() { return fired && nb_.received.size() == 1; }));

    RuntimeStats after = rt().stats();
    EXPECT_EQ(after.linkQueuedMessages, 0u);
    EXPECT_EQ(after.linkQueuedBytes, 0u);
    EXPECT_GE(after.tasksExecuted, 1u);
    EXPECT_GE(after.uptime, 0.0);
    EXPECT_GE(after.timersPending, 1u); // the 5 s timer

    // The published/rendered forms agree with the struct.
    publishRuntimeStats(after);
    EXPECT_DOUBLE_EQ(MetricsRegistry::global().gaugeValue(
                         "runtime.timers_pending"),
                     static_cast<double>(after.timersPending));
    std::ostringstream out;
    writeRuntimeStatsJson(after, out);
    EXPECT_EQ(out.str().front(), '{');
    EXPECT_NE(out.str().find("\"timers_pending\": "),
              std::string::npos);
    EXPECT_NE(out.str().find("\"worker_utilization\": "),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, RuntimeConformance,
                         ::testing::Values("sim", "threaded"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------------
// Periodic export and the traced concurrent-client smoke
// ---------------------------------------------------------------------

TEST(RuntimeStatsExport, PeriodicExporterTicksAndStops)
{
    SimBackend be;
    int ticks = 0;
    PeriodicStatsExporter exporter(
        be.rt(), 0.5,
        [&](const RuntimeStats &s, const MetricsSnapshot &snap) {
            ticks++;
            EXPECT_GE(s.uptime, 0.0);
            // The sink sees gauges already published for this tick.
            EXPECT_TRUE(snap.gauges.count("runtime.timers_pending"));
        });
    exporter.start();
    be.rt().advance(2.6);
    EXPECT_GE(ticks, 4);
    exporter.stop();
    int after = ticks;
    be.rt().advance(2.0);
    EXPECT_EQ(ticks, after); // stopped: the timer chain is dead
}

#ifdef OCEANSTORE_THREADED

TEST(ThreadedTraced, ConcurrentClientsWithTracingAndLiveStats)
{
    // The tentpole acceptance scenario: >= 4 concurrent client
    // threads drive a traced threaded runtime while another thread
    // polls live stats — TSan-clean, every span accounted for.
    constexpr int kClients = 4;
    constexpr int kSendsPerClient = 50;

    Tracer tracer;
    FlightRecorder recorder(1024);
    std::vector<Sink> sinks(kClients);
    ThreadedConfig cfg;
    cfg.workers = 4;
    cfg.seed = 0x5eedu;
    ThreadedRuntime rt(cfg);
    std::vector<NodeId> ids;
    for (int i = 0; i < kClients; i++)
        ids.push_back(rt.addNode(&sinks[i], 0.2 * i, 0.5));

    {
        TraceScope ts(tracer);
        FlightScope fs(recorder, tracer, "traced_smoke");
        std::atomic<int> done{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; c++) {
            clients.emplace_back([&, c]() {
                for (int i = 0; i < kSendsPerClient; i++) {
                    rt.execute([&]() {
                        rt.send(ids[c], ids[(c + 1) % kClients],
                                makeMessage("smoke.msg", i, 64));
                    });
                }
                done.fetch_add(1);
            });
        }
        // Live introspection concurrent with the serve path.
        while (done.load() < kClients) {
            publishRuntimeStats(rt.stats());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        for (auto &t : clients)
            t.join();
        EXPECT_TRUE(rt.runUntil(
            [&]() {
                std::size_t total = 0;
                for (const Sink &s : sinks)
                    total += s.received.size();
                return total == static_cast<std::size_t>(
                                    kClients * kSendsPerClient);
            },
            rt.now() + 20.0));
    }
    rt.shutdown();

    // Arena merge: every allocated span id present exactly once, in
    // order, and the flight ring saw every one of them.
    auto spans = tracer.buffer().snapshot();
    EXPECT_GE(spans.size(), static_cast<std::size_t>(
                                kClients * kSendsPerClient));
    for (std::size_t i = 0; i < spans.size(); i++)
        EXPECT_EQ(spans[i].spanId, static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(recorder.recorded(), spans.size());

    RuntimeStats fin = rt.stats();
    EXPECT_EQ(fin.linkQueuedMessages, 0u);
    EXPECT_EQ(fin.linkQueuedBytes, 0u);
    EXPECT_GE(fin.tasksExecuted, 1u);
    EXPECT_GT(fin.workerUtilization, 0.0);
}

// ---------------------------------------------------------------------
// Waits on the threaded backend: with a coarse 50 ms tick, any wait
// that rides the tick costs tens of milliseconds, far above
// scheduling noise, so these bounds hold on a loaded machine.

constexpr double kCoarseTick = 0.05;

ThreadedConfig
coarseTickCfg()
{
    ThreadedConfig cfg;
    cfg.workers = 2;
    cfg.seed = 0x5eedu;
    cfg.tick = kCoarseTick;
    return cfg;
}

TEST(ThreadedWaits, ZeroDelayTimerCompletesWithinHalfATick)
{
    int fired = 0;
    ThreadedRuntime rt(coarseTickCfg());
    for (int round = 0; round < 5; round++) {
        double t0 = rt.now();
        rt.schedule(0.0, [&]() { fired++; });
        ASSERT_TRUE(
            rt.runUntil([&]() { return fired == round + 1; }, t0 + 5.0));
        EXPECT_LT(rt.now() - t0, kCoarseTick / 2) << "round " << round;
    }
}

TEST(ThreadedWaits, RunUntilReturnsOnCompletionNotOnTheNextTick)
{
    int done = 0;
    double completedAt = 0.0;
    ThreadedRuntime rt(coarseTickCfg());
    for (int round = 0; round < 3; round++) {
        // The work completes a tenth of a tick after the caller
        // starts waiting: a caller that looked once and then slept a
        // tick would return most of a tick late.
        std::thread completer([&]() {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            rt.post([&]() {
                completedAt = rt.now();
                done++;
            });
        });
        bool ok = rt.runUntil([&]() { return done == round + 1; },
                              rt.now() + 5.0);
        double returnedAt = rt.now();
        completer.join();
        ASSERT_TRUE(ok);
        EXPECT_LT(returnedAt - completedAt, kCoarseTick / 2)
            << "round " << round;
    }
}

TEST(ThreadedWaits, RunUntilReturnsFalseAtItsDeadlineNotBefore)
{
    int checks = 0;
    ThreadedRuntime rt(coarseTickCfg());
    // Strand work while the caller waits: each section re-checks the
    // predicate, and none of them may end the wait early.
    for (int i = 0; i < 4; i++)
        rt.schedule(0.01 * i, []() {});
    double deadline = rt.now() + 2 * kCoarseTick;
    EXPECT_FALSE(rt.runUntil(
        [&]() {
            checks++;
            return false;
        },
        deadline));
    double returnedAt = rt.now();
    EXPECT_GT(returnedAt, deadline);
    EXPECT_LT(returnedAt, deadline + 2.0);
    EXPECT_GE(checks, 2);
}

TEST(ThreadedWaits, RunUntilRunsQueuedWorkOnTheCallingThread)
{
    ThreadedRuntime rt(coarseTickCfg());
    // Let the workers reach their idle wait first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int round = 0; round < 3; round++) {
        std::thread::id ranOn;
        bool done = false;
        rt.post([&]() {
            ranOn = std::this_thread::get_id();
            done = true;
        });
        ASSERT_TRUE(rt.runUntil([&]() { return done; }, rt.now() + 5.0));
        // The waiting caller ran the work itself: no worker hand-off.
        EXPECT_EQ(ranOn, std::this_thread::get_id()) << "round " << round;
    }
}

TEST(ThreadedWaits, WorkQueuedWithNobodyWaitingRunsOnAWorker)
{
    ThreadedRuntime rt(coarseTickCfg());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::atomic<bool> done{false};
    std::atomic<bool> onCaller{false};
    std::thread::id self = std::this_thread::get_id();
    double t0 = rt.now();
    rt.post([&]() {
        onCaller = std::this_thread::get_id() == self;
        done = true;
    });
    // Nobody calls runUntil: a worker takes the work about a tick
    // later.
    while (!done && rt.now() - t0 < 5.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    double waited = rt.now() - t0;
    ASSERT_TRUE(done);
    EXPECT_FALSE(onCaller);
    EXPECT_LT(waited, 10 * kCoarseTick);
}

TEST(ThreadedWaits, ShutdownReleasesABlockedRunUntil)
{
    ThreadedRuntime rt(coarseTickCfg());
    std::thread stopper([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        rt.shutdown();
    });
    double t0 = rt.now();
    bool ok = rt.runUntil([]() { return false; }, t0 + 30.0);
    double waited = rt.now() - t0;
    stopper.join();
    EXPECT_FALSE(ok);
    EXPECT_LT(waited, 5.0);
}

TEST(ThreadedWaits, ZeroDelayTimersShowSubTickLateness)
{
    constexpr int kTimers = 20;
    MetricsSnapshot before = MetricsRegistry::global().snapshot();
    int fired = 0;
    ThreadedRuntime rt(coarseTickCfg());
    for (int i = 0; i < kTimers; i++) {
        rt.schedule(0.0, [&]() { fired++; });
        ASSERT_TRUE(rt.runUntil([&]() { return fired == i + 1; },
                                rt.now() + 5.0));
    }
    rt.shutdown();
    MetricsSnapshot delta =
        MetricsRegistry::global().snapshot().deltaFrom(before);
    auto it = delta.histograms.find("runtime.timer_lateness");
    ASSERT_NE(it, delta.histograms.end());
    ASSERT_EQ(it->second.total, static_cast<std::uint64_t>(kTimers));
    EXPECT_GE(it->second.sum, 0.0);
    EXPECT_LT(it->second.sum / kTimers, kCoarseTick);
}

#endif // OCEANSTORE_THREADED

// ---------------------------------------------------------------------
// Framing: the socket-ready wire format used by the threaded
// transport (encode at send, decode + CRC-verify at delivery).

Message
sampleMessage()
{
    Message m = makeMessage("pbft.prepare", 17, 96);
    m.src = 5;
    m.nonce = 0xabcdef0123456789ull;
    m.destGuid = Guid::hashOf("frame-target");
    return m;
}

TEST(Framing, RoundTripPreservesHeaderFields)
{
    Message m = sampleMessage();
    Bytes frame = encodeFrame(m);
    auto hdr = decodeFrame(frame);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->type, m.type);
    EXPECT_EQ(hdr->src, m.src);
    EXPECT_EQ(hdr->nonce, m.nonce);
    EXPECT_EQ(hdr->destGuid, m.destGuid);
    EXPECT_EQ(hdr->payloadLen, m.wireSize);
}

TEST(Framing, CorruptionIsDetectedByCrc)
{
    Bytes frame = encodeFrame(sampleMessage());
    for (std::size_t i = 0; i < frame.size(); i++) {
        Bytes bad = frame;
        bad[i] ^= 0x40;
        EXPECT_FALSE(decodeFrame(bad).has_value())
            << "flip at byte " << i << " went undetected";
    }
}

TEST(Framing, TruncationAndTrailingGarbageAreRejected)
{
    Bytes frame = encodeFrame(sampleMessage());
    for (std::size_t n = 0; n < frame.size(); n += 7) {
        Bytes cut(frame.begin(),
                  frame.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_FALSE(decodeFrame(cut).has_value());
    }
    Bytes extra = frame;
    extra.push_back(0);
    EXPECT_FALSE(decodeFrame(extra).has_value());
}

TEST(Framing, EmptyAndBadMagicAreRejected)
{
    EXPECT_FALSE(decodeFrame(Bytes{}).has_value());
    Bytes frame = encodeFrame(sampleMessage());
    frame[0] ^= 0xff;
    EXPECT_FALSE(decodeFrame(frame).has_value());
}

} // namespace
} // namespace oceanstore
