/**
 * @file
 * Real asynchronous Runtime backend (DESIGN.md section 15).
 *
 * ThreadedRuntime runs the same protocol stack the simulator runs,
 * but against wall-clock time and real threads:
 *
 *  - a worker thread pool executes timer callbacks, message
 *    deliveries and posted tasks;
 *  - a hashed timer wheel (fixed tick, slot = due-tick modulo wheel
 *    size) provides schedule/cancel without a global priority queue;
 *  - an in-process loopback transport takes every link decision
 *    (latency, drops, faults, liveness, partitions, accounting) from
 *    the LinkModel the sim's Network uses, and carries the decided
 *    legs on one FIFO queue per (src, dst) link so two sends on a
 *    link can never reorder, with socket-ready framing
 *    (runtime/framing.h) encoded at send and decoded + CRC-verified
 *    at delivery;
 *  - every protocol callback runs on the runtime's *strand*: workers
 *    acquire a single strand mutex around handlers, timers and
 *    execute() sections, so protocol objects written for the
 *    single-threaded simulator stay correct unmodified.  The pool
 *    and the strand give an event-loop shard served by real threads;
 *    concurrency comes from client threads, the timer thread and
 *    the transport plumbing, not from splitting protocol state.
 *
 * The class is only functional when the tree is built with
 * OCEANSTORE_THREADED (which also arms util::Mutex); in a plain sim
 * build construction aborts with a clear message and available() is
 * false, so callers can gate demos and tests at runtime.
 *
 * Determinism caveat: timers fire on wheel-tick boundaries of real
 * time and thread interleavings vary run to run, so the threaded
 * backend makes no replay guarantee.  Seeded decisions (latency
 * jitter, drops, faults, mixSeed) remain reproducible; ordering does
 * not.
 */

#ifndef OCEANSTORE_RUNTIME_THREADED_RUNTIME_H
#define OCEANSTORE_RUNTIME_THREADED_RUNTIME_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "sim/link_model.h"
#include "util/bytes.h"

namespace oceanstore {

/**
 * Tunables for the threaded backend: the link knobs with loopback
 * defaults (the seed also derives mixSeed), plus the worker pool and
 * the timer wheel.
 */
struct ThreadedConfig : LinkConfig
{
    ThreadedConfig() : LinkConfig(loopbackLinkDefaults) {}

    /** Worker threads servicing the task queue. */
    unsigned workers = 4;
    /** Timer-wheel tick (seconds of wall time). */
    double tick = 0.0005;
};

/** Runtime implementation over real threads and wall-clock time. */
class ThreadedRuntime final : public Runtime
{
  public:
    /** True when the build can actually run this backend. */
    static constexpr bool
    available()
    {
#ifdef OCEANSTORE_THREADED
        return true;
#else
        return false;
#endif
    }

    /** Starts the timer thread and worker pool immediately. */
    explicit ThreadedRuntime(ThreadedConfig cfg = {});

    /** Joins all threads (calls shutdown() if still running). */
    ~ThreadedRuntime() override;

    ThreadedRuntime(const ThreadedRuntime &) = delete;
    ThreadedRuntime &operator=(const ThreadedRuntime &) = delete;

    /**
     * Graceful stop: the timer wheel stops firing, workers drain the
     * task queue, then every thread is joined.  Idempotent; must be
     * called (or the destructor run) before any registered endpoint
     * is destroyed.
     */
    void shutdown();

    // --- Runtime interface ----------------------------------------
    SimTime now() const override;
    EventId schedule(SimTime delay, EventFn fn) override;
    EventId scheduleAt(SimTime when, EventFn fn) override;
    void cancel(EventId id) override;
    void post(EventFn fn) override;

    NodeId addNode(SimNode *node, double x, double y) override;
    void removeNode(NodeId id) override;
    std::size_t nodeCount() const override;
    void send(NodeId from, NodeId to, Message msg) override;
    void multicast(NodeId from, const std::vector<NodeId> &tos,
                   Message msg) override;
    double latency(NodeId a, NodeId b) const override;
    double distance(NodeId a, NodeId b) const override;
    double xOf(NodeId n) const override;
    double yOf(NodeId n) const override;
    void setDown(NodeId n) override;
    void setUp(NodeId n) override;
    bool isUp(NodeId n) const override;
    void setPartition(NodeId n, int partition) override;
    void healPartitions() override;
    void heal(int a, int b) override;
    void setFaultInjector(FaultHook *hook) override;
    std::uint64_t totalBytes() const override;
    std::uint64_t totalMessages() const override;
    std::size_t inFlight() const override;
    std::uint64_t uniqueStamp() const override;

    std::uint64_t mixSeed(std::uint64_t salt) const override;

    RuntimeStats stats() const override;

    bool deterministic() const override { return false; }
    bool runUntil(const std::function<bool()> &pred,
                  SimTime deadline) override;
    void advance(SimTime seconds) override;
    void execute(const std::function<void()> &fn) override;

  private:
    /** One queued (encoded, latency-stamped) delivery on a link. */
    struct Pending
    {
        std::shared_ptr<const Message> msg;
        std::shared_ptr<const Bytes> frame;
        double due = 0.0;
        double sentAt = 0.0; //!< Send time, for phase attribution.
        NodeId to = invalidNode;
    };

    /** Per-(src,dst) FIFO delivery queue. */
    struct Link
    {
        std::deque<Pending> q;
        /** True while a drain timer or drain pass owns the link. */
        bool armed = false;
    };

    /** A queued unit of strand work (+ its causal context).  Work
     *  that originated as a timer carries the timer's tombstone so
     *  cancel() stays effective until the callback actually runs. */
    struct Task
    {
        EventFn fn;
        TraceContext ctx;
        std::shared_ptr<std::atomic<bool>> alive;
        EventId timerId = invalidEventId;
        /** When the originating schedule()/post() ran (wall). */
        double scheduledAt = 0.0;
        /** When the task entered tasks_ (runtime.task_delay base). */
        double enqueuedAt = 0.0;
        /** Ambient phase label captured at scheduling. */
        std::uint16_t label = 0;
        /** False for runtime-internal work (link drains), which the
         *  profiler must not attribute to a protocol phase. */
        bool profile = true;
    };

    /** A wheel timer waiting to fire. */
    struct Timer
    {
        double when = 0.0;
        EventFn fn;
        TraceContext ctx;
        std::shared_ptr<std::atomic<bool>> alive;
        double scheduledAt = 0.0;
        std::uint16_t label = 0;
        bool profile = true;
    };

    static constexpr std::size_t wheelSlots = 512;

    double nowImpl() const;
    std::uint64_t tickOf(double when) const;
    /** "Locked" members require mu_ held by the caller.
     *  profile=false marks runtime-internal timers (link drains):
     *  no trace/phase capture, no profiler attribution. */
    EventId scheduleLocked(double when, EventFn fn,
                           bool profile = true);
    void armLinkLocked(std::uint64_t key, double due);
    /** send() and multicast(): account, route and queue every leg
     *  under two acquisitions of mu_. */
    void transmit(NodeId from, std::span<const NodeId> tos,
                  Message msg, bool fanout);
    /** Queue every decided leg (@p msg and @p frame shared by all)
     *  of one transmission under a single lock. */
    void enqueueDeliveries(NodeId from,
                           const std::shared_ptr<const Message> &msg,
                           const std::shared_ptr<const Bytes> &frame,
                           std::vector<Pending> &legs);
    void drainLink(std::uint64_t key);
    void deliverPending(const Pending &p);
    void runOnStrand(const std::function<void()> &fn);
    void runTask(Task &task);
    void timerLoop();
    void workerLoop();

    ThreadedConfig cfg_;
    std::chrono::steady_clock::time_point start_;

    /** Guards every mutable member below (queues, wheel, link
     *  model).  Never held while running user callbacks. */
    mutable std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable timerCv_;
    bool stop_ = false;

    /** Serializes protocol callbacks; taken before mu_, never after. */
    std::mutex strandMu_;
    std::atomic<std::thread::id> strandOwner_{};
    mutable std::atomic<std::uint64_t> stamp_{0};

    LinkModel link_;
    std::size_t inFlight_ = 0;
    /** Bytes sitting in link queues right now (guarded by mu_). */
    std::uint64_t linkQueuedBytes_ = 0;

    /** Strand callbacks completed since start. */
    std::atomic<std::uint64_t> tasksRun_{0};
    /** Wall nanoseconds workers spent inside callbacks. */
    std::atomic<std::uint64_t> busyNanos_{0};

    std::deque<Task> tasks_;
    std::map<std::uint64_t, Link> links_;

    std::vector<std::map<EventId, Timer>> wheel_;
    std::map<EventId, std::size_t> slotOf_;
    /** Tombstones for every scheduled-but-not-yet-run timer,
     *  including those already moved off the wheel into tasks_;
     *  cancel() clears the flag here and runTask skips the body. */
    std::map<EventId, std::shared_ptr<std::atomic<bool>>> aliveOf_;
    std::uint64_t lastTick_ = 0;
    EventId nextId_ = 1;

    std::thread timerThread_;
    std::vector<std::thread> workers_;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_THREADED_RUNTIME_H
