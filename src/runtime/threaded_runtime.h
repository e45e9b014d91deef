/**
 * @file
 * Real asynchronous Runtime backend (DESIGN.md section 15).
 *
 * ThreadedRuntime runs the same protocol stack the simulator runs,
 * but against wall-clock time and real threads:
 *
 *  - a worker thread pool, and any client blocked in runUntil(),
 *    executes timer callbacks, message deliveries and posted tasks;
 *  - a hashed timer wheel (fixed tick, slot = due-tick modulo wheel
 *    size, each slot ordered by deadline) provides schedule/cancel
 *    without a global priority queue;
 *  - an in-process loopback transport takes every link decision
 *    (latency, drops, faults, liveness, partitions, accounting) from
 *    the LinkModel the sim's Network uses, and carries the decided
 *    legs on one FIFO queue per (src, dst) link so two sends on a
 *    link can never reorder, with socket-ready framing
 *    (runtime/framing.h) encoded at send and decoded + CRC-verified
 *    at delivery;
 *  - every protocol callback runs on the runtime's *strand*: a
 *    single lock held around handlers, timers and execute()
 *    sections, so protocol objects written for the
 *    single-threaded simulator stay correct unmodified.  The pool
 *    and the strand give an event-loop shard served by real threads;
 *    concurrency comes from client threads, the timer thread and
 *    the transport plumbing, not from splitting protocol state.
 *
 * Waiting is event-driven, and work moves between threads as little
 * as it can.  Work already due (a zero-delay timer, a drain of an
 * instant link) goes straight onto the task queue; only later
 * deadlines go on the wheel.  The timer thread sleeps until the
 * earliest deadline on the wheel, is woken when a new timer is due
 * before its planned pass, and fires exactly the timers whose
 * deadline has passed, never one early.  runUntil() never polls: the
 * caller runs queued tasks itself on the strand until its predicate
 * holds, as the sim's runUntil steps the event loop, and when the
 * queue is empty it sleeps until a strand section finds the
 * predicate true (every section re-checks the registered ones before
 * releasing the strand), work arrives with nobody to run it, its
 * deadline passes, or shutdown().  Who runs newly queued work:
 * whoever already runs tasks (an awake worker, a helping caller);
 * else a caller asleep in runUntil(); else, for timer-thread work, a
 * worker at once, and for work a client thread queued (or left when
 * its wait ended) a worker only if it still sits unattended a tick
 * later, since that client thread usually comes straight back
 * through runUntil().  A closed-loop client thus serves its requests
 * with no thread hand-off at all.
 *
 * The class is only functional when the tree is built with
 * OCEANSTORE_THREADED (which also arms util::Mutex); in a plain sim
 * build construction aborts with a clear message and available() is
 * false, so callers can gate demos and tests at runtime.
 *
 * Determinism caveat: timers fire on real time and thread
 * interleavings vary run to run, so the threaded backend makes no
 * replay guarantee.  Seeded decisions (latency jitter, drops,
 * faults, mixSeed) remain reproducible; ordering does not.
 */

#ifndef OCEANSTORE_RUNTIME_THREADED_RUNTIME_H
#define OCEANSTORE_RUNTIME_THREADED_RUNTIME_H

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
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
    /** Timer-wheel tick (seconds of wall time).  Also how long work
     *  a client thread queued waits for a worker when no runUntil()
     *  caller takes it first, and how long a thread waits for the
     *  strand before it is served in arrival order. */
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

    /** A client thread blocked in runUntil(). */
    struct Waiter
    {
        const std::function<bool()> *pred = nullptr;
        /** Set (under mu_) once pred held on the strand. */
        bool done = false;
        /** Set (under mu_) by handOffLocked(): run queued work. */
        bool help = false;
        /** Signalled (under mu_) on done, help and shutdown. */
        std::condition_variable cv;
    };

    /** A wheel timer waiting to fire. */
    struct Timer
    {
        EventFn fn;
        TraceContext ctx;
        std::shared_ptr<std::atomic<bool>> alive;
        double scheduledAt = 0.0;
        std::uint16_t label = 0;
        bool profile = true;
    };

    static constexpr std::size_t wheelSlots = 512;
    /** A link head due at most this far ahead counts as due: its
     *  drain skips the wheel and delivers it at once.  This covers
     *  the link model's 1 us local-delivery step, which is shorter
     *  than any thread hand-off, so a wheel trip would only make the
     *  delivery later. */
    static constexpr double instantLag = 1e-5;

    double nowImpl() const;
    /** The steady-clock instant @p t runtime seconds after start. */
    std::chrono::steady_clock::time_point wallAt(double t) const;
    std::uint64_t tickOf(double when) const;
    /** "Locked" members require mu_ held by the caller.
     *  profile=false marks runtime-internal timers (link drains):
     *  no trace/phase capture, no profiler attribution.  A timer
     *  already due goes straight onto tasks_ and sets @p queued (the
     *  caller then calls handOffLocked()).  Otherwise it
     *  goes on the wheel, raising timerWake_ when it is due before
     *  the next planned pass (the caller then notifies timerCv_
     *  after releasing mu_). */
    EventId scheduleLocked(double when, EventFn fn, bool profile,
                           bool &queued);
    /** Moves a timer's body and context into a task for tasks_. */
    static Task toTask(EventId id, Timer &tm, double now);
    /** Arms @p key's drain: on the wheel if @p due is still ahead,
     *  else straight onto tasks_, returning true (the caller then
     *  calls handOffLocked()). */
    bool armLinkLocked(std::uint64_t key, double due);
    /** True while an awake worker or a helping runUntil() caller
     *  will take newly queued tasks. */
    bool attendedLocked() const;
    /** Queued tasks that nobody attends go to a runUntil() caller
     *  asleep on an empty queue, else to a worker: at once when
     *  @p now (timer-thread work), else only if still unattended a
     *  tick later (client-thread work, which its thread usually runs
     *  itself in its next runUntil()).  May raise timerWake_. */
    void handOffLocked(bool now);
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
    /** On the strand: release every runUntil() caller whose
     *  predicate now holds. */
    void wakeWaiters();
    void runTask(Task &task);
    /** On the strand: pop and run the head of tasks_; false if the
     *  queue was empty. */
    bool runNextTask();
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
    /** When the timer thread plans its next wheel pass: the earliest
     *  deadline on the wheel, or noPass while it is empty. */
    double nextPass_ = 0.0;
    static constexpr double noPass =
        std::numeric_limits<double>::infinity();
    /** Set when a new timer pulled nextPass_ in, so the sleeping
     *  timer thread re-plans. */
    bool timerWake_ = false;
    /** Workers asleep on workCv_. */
    unsigned idle_ = 0;
    /** runUntil() callers running (or asked to run) queued tasks. */
    unsigned helping_ = 0;
    /** When client-thread work was left with nobody to run it (the
     *  worker backstop's clock), or noPass. */
    double unattendedAt_ = noPass;
    /** Backstop clock starts, and the count the timer thread saw. */
    std::uint64_t backstops_ = 0;
    std::uint64_t backstopsSeen_ = 0;
    /** runUntil() callers asleep on an empty queue. */
    std::vector<Waiter *> sleepers_;
    /** Set by shutdown() once every thread has joined. */
    bool halted_ = false;

    /** The strand's lock.  A free lock goes to whoever asks, so a
     *  thread that releases it and asks again at once (a client's
     *  execute() and the runUntil() right after it) keeps it without
     *  a hand-off; but once the longest waiter has waited
     *  @p starveAfter, the lock goes to waiters in arrival order, so
     *  no client's stream of sections starves another's for long. */
    class StrandLock
    {
      public:
        explicit StrandLock(double starveAfter)
            : starveAfter_(std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(starveAfter)))
        {
        }
        void lock()
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (!held_ && !starvingLocked()) {
                held_ = true;
                return;
            }
            std::uint64_t ticket = next_++;
            queue_.push_back({ticket, std::chrono::steady_clock::now()});
            cv_.wait(lk, [&] {
                return !held_ && (queue_.front().ticket == ticket ||
                                  !starvingLocked());
            });
            std::erase_if(queue_, [&](const Waiting &w) {
                return w.ticket == ticket;
            });
            held_ = true;
        }
        void unlock()
        {
            bool waiters;
            {
                std::lock_guard<std::mutex> lk(mu_);
                held_ = false;
                waiters = !queue_.empty();
            }
            if (waiters)
                cv_.notify_all();
        }

      private:
        struct Waiting
        {
            std::uint64_t ticket;
            std::chrono::steady_clock::time_point since;
        };
        bool starvingLocked() const
        {
            return !queue_.empty() &&
                   std::chrono::steady_clock::now() - queue_.front().since >=
                       starveAfter_;
        }
        const std::chrono::steady_clock::duration starveAfter_;
        std::mutex mu_;
        std::condition_variable cv_;
        bool held_ = false;
        std::uint64_t next_ = 0;
        std::deque<Waiting> queue_;
    };

    /** Serializes protocol callbacks; taken before mu_, never after. */
    StrandLock strandMu_;
    std::atomic<std::thread::id> strandOwner_{};
    /** Blocked runUntil() callers; only touched on the strand. */
    std::vector<Waiter *> waiters_;
    mutable std::atomic<std::uint64_t> stamp_{0};

    LinkModel link_;
    std::size_t inFlight_ = 0;
    /** Bytes sitting in link queues right now (guarded by mu_). */
    std::uint64_t linkQueuedBytes_ = 0;

    /** Strand callbacks completed since start. */
    std::atomic<std::uint64_t> tasksRun_{0};
    /** Wall nanoseconds spent inside task callbacks, by workers and
     *  by runUntil() callers running queued tasks. */
    std::atomic<std::uint64_t> busyNanos_{0};

    std::deque<Task> tasks_;
    std::map<std::uint64_t, Link> links_;

    /** Each slot keyed by (deadline, id): a pass visits a slot's
     *  entries in deadline order and stops at the first one not yet
     *  due, skipping those of later rotations. */
    std::vector<std::map<std::pair<double, EventId>, Timer>> wheel_;
    /** Bit per non-empty wheel slot, so planning the next pass reads
     *  only the occupied slots' first entries. */
    std::array<std::uint64_t, wheelSlots / 64> occupied_{};
    /** (slot, deadline) of every timer still on the wheel. */
    std::map<EventId, std::pair<std::size_t, double>> slotOf_;
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
