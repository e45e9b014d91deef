/**
 * @file
 * Deterministic Runtime backend: a thin adapter over the existing
 * discrete-event Simulator and Network.
 *
 * Every call forwards unchanged to the wrapped pair — no extra
 * scheduling, no reordering, no added randomness — so protocol code
 * re-plumbed from (Simulator&, Network&) to Runtime& behaves
 * byte-identically: the same seeds produce the same event order,
 * metric values and trace hashes as before the seam existed.
 *
 * The adapter does not own the simulator or network; the caller
 * constructs both and wraps them when handing a Runtime to the
 * protocol tiers.
 */

#ifndef OCEANSTORE_RUNTIME_SIM_RUNTIME_H
#define OCEANSTORE_RUNTIME_SIM_RUNTIME_H

#include "runtime/runtime.h"
#include "sim/simulator.h"

namespace oceanstore {

/** Runtime implementation over Simulator + Network (deterministic). */
class SimRuntime final : public Runtime
{
  public:
    /** Wrap an existing simulator/network; neither is owned. */
    SimRuntime(Simulator &sim, Network &net,
               std::uint64_t seed = 0x05eedull)
        : sim_(sim), net_(net), seed_(seed)
    {
    }

    // --- clock & timers -------------------------------------------
    SimTime now() const override { return sim_.now(); }

    EventId
    schedule(SimTime delay, EventFn fn) override
    {
        return sim_.schedule(delay, std::move(fn));
    }

    EventId
    scheduleAt(SimTime when, EventFn fn) override
    {
        return sim_.scheduleAt(when, std::move(fn));
    }

    void cancel(EventId id) override { sim_.cancel(id); }

    void post(EventFn fn) override { sim_.schedule(0.0, std::move(fn)); }

    // --- transport ------------------------------------------------
    NodeId
    addNode(SimNode *node, double x, double y) override
    {
        return net_.addNode(node, x, y);
    }

    void removeNode(NodeId id) override { net_.removeNode(id); }

    std::size_t nodeCount() const override { return net_.size(); }

    void
    send(NodeId from, NodeId to, Message msg) override
    {
        net_.send(from, to, std::move(msg));
    }

    void
    multicast(NodeId from, const std::vector<NodeId> &tos,
              Message msg) override
    {
        net_.multicast(from, tos, std::move(msg));
    }

    double
    latency(NodeId a, NodeId b) const override
    {
        return net_.latency(a, b);
    }

    double
    distance(NodeId a, NodeId b) const override
    {
        return net_.distance(a, b);
    }

    double xOf(NodeId n) const override { return net_.xOf(n); }
    double yOf(NodeId n) const override { return net_.yOf(n); }

    void setDown(NodeId n) override { net_.setDown(n); }
    void setUp(NodeId n) override { net_.setUp(n); }
    bool isUp(NodeId n) const override { return net_.isUp(n); }

    void setPartition(NodeId n, int p) override { net_.setPartition(n, p); }
    void healPartitions() override { net_.healPartitions(); }
    void heal(int a, int b) override { net_.heal(a, b); }
    void setFaultInjector(FaultHook *f) override { net_.setFaultInjector(f); }

    std::uint64_t totalBytes() const override { return net_.totalBytes(); }

    std::uint64_t
    totalMessages() const override
    {
        return net_.totalMessages();
    }

    std::size_t inFlight() const override { return net_.inFlight(); }

    std::uint64_t
    uniqueStamp() const override
    {
        return sim_.eventsExecuted();
    }

    // --- seeded rng -----------------------------------------------
    std::uint64_t
    mixSeed(std::uint64_t salt) const override
    {
        return mixSeed64(seed_, salt);
    }

    // --- introspection --------------------------------------------
    /** Trivially derived from the wrapped pair: the event queue is
     *  the timer surface, delivery flights are the "link queue", and
     *  pool/wheel/utilization fields stay zero (no threads). */
    RuntimeStats
    stats() const override
    {
        RuntimeStats s;
        s.uptime = sim_.now();
        s.strandQueueDepth = 0; // events run inline on the caller
        s.timersPending = sim_.pending();
        s.linkQueuedMessages = net_.inFlight();
        s.tasksExecuted = sim_.eventsExecuted();
        return s;
    }

    // --- mode & driving -------------------------------------------
    bool deterministic() const override { return true; }

    bool
    runUntil(const std::function<bool()> &pred, SimTime deadline)
        override
    {
        while (!pred()) {
            if (sim_.now() > deadline)
                return pred();
            if (!sim_.step())
                return pred();
        }
        return true;
    }

    void advance(SimTime seconds) override { sim_.runUntil(sim_.now() + seconds); }

    void execute(const std::function<void()> &fn) override { fn(); }

    /** The wrapped simulator, for sim-only instrumentation. */
    Simulator &sim() { return sim_; }

    /** The wrapped network, for sim-only accounting. */
    Network &net() { return net_; }

  private:
    Simulator &sim_;
    Network &net_;
    std::uint64_t seed_;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_SIM_RUNTIME_H
