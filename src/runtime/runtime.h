/**
 * @file
 * The Runtime seam (DESIGN.md section 15).
 *
 * Every protocol state machine in the tree — PBFT, the secondary
 * tier, the Plaxton mesh, archival, the failure detector, the
 * Universe itself — drives its clock, timers and transport through
 * this narrow interface instead of binding to sim::Simulator
 * directly.  Two implementations exist:
 *
 *  - SimRuntime (sim_runtime.h): a zero-cost adapter over the
 *    deterministic discrete-event Simulator/Network pair.  Every
 *    call forwards unchanged, so a protocol stack running on
 *    SimRuntime is byte-identical (same seeds, same trace hashes)
 *    to one wired to the simulator directly.
 *
 *  - ThreadedRuntime (threaded_runtime.h): a real asynchronous
 *    runtime — worker thread pool, hashed timer wheel, in-process
 *    loopback transport with per-link FIFO queues and socket-ready
 *    framing — compiled functional only under OCEANSTORE_THREADED.
 *
 * Both backends take every link decision (latency, drops, faults,
 * liveness, partitions, accounting) from one LinkModel
 * (sim/link_model.h), so a FaultInjector armed on either sees the
 * same substrate.
 *
 * The interface reuses the simulator's vocabulary types (SimTime in
 * seconds, EventId, Message, SimNode) so the adapter adds no
 * translation layer; on the threaded backend SimTime is wall-clock
 * seconds since runtime start and EventId names a wheel timer.
 *
 * Threading contract: on SimRuntime everything is single-threaded.
 * On ThreadedRuntime, timer callbacks, message handlers and posted
 * tasks all run on the runtime's strand (mutually exclusive, FIFO),
 * so protocol objects need no locking of their own; execute() lets
 * an external thread join that strand for a synchronous section.
 */

#ifndef OCEANSTORE_RUNTIME_RUNTIME_H
#define OCEANSTORE_RUNTIME_RUNTIME_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_fn.h"
#include "sim/network.h"

namespace oceanstore {

/** Mix a base seed with a salt (SplitMix64 finalizer), so both
 *  backends hand out reproducible per-component seeds. */
inline std::uint64_t
mixSeed64(std::uint64_t base, std::uint64_t salt)
{
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Health snapshot of a Runtime backend (DESIGN.md section 16): how
 * deep its queues are and how busy its machinery is *right now*.
 * Fields with no analogue on a backend stay zero (the sim has no
 * worker pool or per-link queues; its event queue is the timer
 * surface).  Published as `runtime.*` gauges by
 * publishRuntimeStats() (runtime/stats.h) and rendered into
 * Universe::statusReport().
 */
struct RuntimeStats
{
    /** Clock seconds since the runtime started (sim time / wall). */
    double uptime = 0.0;
    /** Tasks queued for the strand, not yet started. */
    std::size_t strandQueueDepth = 0;
    /** Timers scheduled and not yet fired or cancelled. */
    std::size_t timersPending = 0;
    /** Timer-wheel slots currently holding >= 1 timer (threaded). */
    std::size_t wheelSlotsOccupied = 0;
    /** Links with >= 1 queued delivery (threaded). */
    std::size_t linksActive = 0;
    /** Messages accepted but not yet delivered or dropped. */
    std::size_t linkQueuedMessages = 0;
    /** Payload+header bytes across all link queues (threaded). */
    std::uint64_t linkQueuedBytes = 0;
    /** Worker threads serving the task queue (0 on sim). */
    std::size_t workers = 0;
    /** Callbacks (tasks/events) executed since start. */
    std::uint64_t tasksExecuted = 0;
    /** Fraction of worker capacity spent running callbacks, [0, 1]
     *  (0 on sim, whose event loop is the caller's thread). */
    double workerUtilization = 0.0;
};

/** Narrow clock/timer/transport interface both backends implement. */
class Runtime
{
  public:
    virtual ~Runtime() = default;

    // --- clock & timers -------------------------------------------
    /** Current time in seconds (sim time or wall time since start). */
    virtual SimTime now() const = 0;

    /**
     * Run @p fn once after @p delay seconds.  The returned id stays
     * valid for cancel() until the callback has run.
     */
    virtual EventId schedule(SimTime delay, EventFn fn) = 0;

    /** Run @p fn at absolute time @p when (clamped to now). */
    virtual EventId scheduleAt(SimTime when, EventFn fn) = 0;

    /** Cancel a pending timer; ignores ids that already fired. */
    virtual void cancel(EventId id) = 0;

    /** Run @p fn as soon as possible, after already-queued work. */
    virtual void post(EventFn fn) = 0;

    // --- transport ------------------------------------------------
    /**
     * Register an endpoint at position (x, y) in the unit square.
     * The caller retains ownership and must removeNode() before the
     * endpoint is destroyed.
     */
    virtual NodeId addNode(SimNode *node, double x, double y) = 0;

    /** Detach an endpoint; later arrivals for it are dropped. */
    virtual void removeNode(NodeId id) = 0;

    /** Number of registered endpoints. */
    virtual std::size_t nodeCount() const = 0;

    /**
     * Send @p msg from @p from to @p to over the (from, to) link.
     * Delivery is asynchronous, after the modeled link latency, and
     * per-link FIFO: two sends on the same link are handled in send
     * order.  Bytes are counted at send time even if the destination
     * is down on arrival (the sender cannot know).
     */
    virtual void send(NodeId from, NodeId to, Message msg) = 0;

    /**
     * Send one payload to every node in @p tos.  Semantically a
     * send() per destination (per-link accounting, drop and fault
     * decisions, liveness checks), but the payload is stored once
     * and shared by reference.
     */
    virtual void multicast(NodeId from, const std::vector<NodeId> &tos,
                           Message msg) = 0;

    /** Modeled one-way latency between two nodes, without jitter. */
    virtual double latency(NodeId a, NodeId b) const = 0;

    /** Euclidean distance between two node positions. */
    virtual double distance(NodeId a, NodeId b) const = 0;

    /** Position accessors. */
    virtual double xOf(NodeId n) const = 0;
    virtual double yOf(NodeId n) const = 0;

    /** Mark a node crashed; arrivals for it are silently dropped. */
    virtual void setDown(NodeId n) = 0;

    /** Bring a crashed node back. */
    virtual void setUp(NodeId n) = 0;

    /** True when the node is up. */
    virtual bool isUp(NodeId n) const = 0;

    /** Messages are only delivered within one partition (checked at
     *  arrival); every node starts in partition 0. */
    virtual void setPartition(NodeId n, int partition) = 0;
    /** Everyone back to partition 0. */
    virtual void healPartitions() = 0;
    /** Move every node in partition @p b into partition @p a. */
    virtual void heal(int a, int b) = 0;

    /** Attach (nullptr: detach) the fault hook every transmission
     *  from a live sender consults (FaultInjector, runtime/fault.h). */
    virtual void setFaultInjector(FaultHook *hook) = 0;

    /** Total payload+header bytes accepted for transmission. */
    virtual std::uint64_t totalBytes() const = 0;

    /** Total messages accepted for transmission. */
    virtual std::uint64_t totalMessages() const = 0;

    /** Messages accepted but not yet delivered or dropped. */
    virtual std::size_t inFlight() const = 0;

    /**
     * A monotone activity stamp used to salt uniqueness-sensitive
     * hashes (request ids).  Sim: the executed-event count, so the
     * value is deterministic; threaded: a per-runtime counter.
     */
    virtual std::uint64_t uniqueStamp() const = 0;

    // --- seeded rng -----------------------------------------------
    /**
     * Derive a 64-bit seed from the runtime's base seed and @p salt.
     * Deterministic on both backends: the same (base, salt) pair
     * always yields the same value, so components seeded through the
     * runtime replay identically.
     */
    virtual std::uint64_t mixSeed(std::uint64_t salt) const = 0;

    // --- introspection --------------------------------------------
    /**
     * Live health snapshot: queue depths, timer occupancy, worker
     * utilization.  Cheap (one lock, no allocation beyond the
     * struct) and callable from any thread, including the strand.
     */
    virtual RuntimeStats stats() const = 0;

    // --- mode & driving -------------------------------------------
    /** True when time is simulated and replay is bit-exact. */
    virtual bool deterministic() const = 0;

    /**
     * Drive the runtime until @p pred returns true or the clock
     * passes @p deadline (absolute seconds).  On the sim backend
     * this steps the event loop; on the threaded backend it polls
     * @p pred on the strand while real time passes.  Returns the
     * final pred() value.
     */
    virtual bool runUntil(const std::function<bool()> &pred,
                          SimTime deadline) = 0;

    /** Let @p seconds of runtime time elapse. */
    virtual void advance(SimTime seconds) = 0;

    /**
     * Run @p fn exclusively with respect to all runtime callbacks —
     * the entry point for external threads touching protocol state.
     * On SimRuntime this is a plain call; on ThreadedRuntime it
     * acquires the strand (reentrant from within a callback).
     */
    virtual void execute(const std::function<void()> &fn) = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_RUNTIME_H
