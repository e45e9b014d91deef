#include "runtime/threaded_runtime.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/framing.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Interned metric ids for the threaded backend (thread-safe: the
 *  registry locks internally and ids are interned once). */
struct RtMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id tasks, timersSet, timersFired, timersCancelled,
        sends, bytes, drops, arrivalDrops, delivered, frameBytes,
        frameErrors, taskDelay, timerLateness;

    RtMetricIds()
        : reg(&MetricsRegistry::global()),
          tasks(reg->counter("runtime.tasks")),
          timersSet(reg->counter("runtime.timers_set")),
          timersFired(reg->counter("runtime.timers_fired")),
          timersCancelled(reg->counter("runtime.timers_cancelled")),
          sends(reg->counter("runtime.sends")),
          bytes(reg->counter("runtime.bytes")),
          drops(reg->counter("runtime.drops")),
          arrivalDrops(reg->counter("runtime.arrival_drops")),
          delivered(reg->counter("runtime.delivered")),
          frameBytes(reg->counter("runtime.frame_bytes")),
          frameErrors(reg->counter("runtime.frame_errors")),
          // Enqueue->run latency; the sim backend feeds the same
          // histogram with schedule->fire delays, so one dashboard
          // reads both.
          taskDelay(reg->histogram("runtime.task_delay", 0.0, 2.5, 50)),
          // Wheel pass time minus the timer's deadline: the
          // timer-wheel rounding term of a request's latency.
          timerLateness(
              reg->histogram("runtime.timer_lateness", 0.0, 0.005, 50))
    {
    }
};

RtMetricIds &
rtMetrics()
{
    static RtMetricIds ids;
    return ids;
}

std::uint64_t
linkKey(NodeId from, NodeId to)
{
    return (static_cast<std::uint64_t>(from) << 32) | to;
}

} // namespace

ThreadedRuntime::ThreadedRuntime(ThreadedConfig cfg)
    : cfg_(cfg),
      start_(std::chrono::steady_clock::now()),
      strandMu_(cfg.tick),
      link_(cfg),
      wheel_(wheelSlots)
{
    if (!available())
        fatal("ThreadedRuntime requires an OCEANSTORE_THREADED build "
              "(cmake -DOCEANSTORE_THREADED=ON)");
    OS_CHECK(cfg_.workers >= 1, "ThreadedRuntime: needs >= 1 worker");
    OS_CHECK(cfg_.tick > 0.0, "ThreadedRuntime: tick must be > 0");
    rtMetrics(); // intern ids before threads exist
    timerThread_ = std::thread([this] { timerLoop(); });
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadedRuntime::~ThreadedRuntime() { shutdown(); }

void
ThreadedRuntime::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_)
            return;
        stop_ = true;
    }
    timerCv_.notify_all();
    workCv_.notify_all();
    if (timerThread_.joinable())
        timerThread_.join();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
    // Nothing runs any more: release every blocked runUntil() so it
    // re-checks its predicate once and returns.
    std::lock_guard<std::mutex> lk(mu_);
    halted_ = true;
    for (Waiter *w : sleepers_)
        w->cv.notify_one();
}

double
ThreadedRuntime::nowImpl() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

SimTime ThreadedRuntime::now() const { return nowImpl(); }

std::chrono::steady_clock::time_point
ThreadedRuntime::wallAt(double t) const
{
    return start_ + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(t));
}

std::uint64_t
ThreadedRuntime::tickOf(double when) const
{
    double t = std::ceil(when / cfg_.tick);
    return t <= 0.0 ? 0 : static_cast<std::uint64_t>(t);
}

EventId
ThreadedRuntime::scheduleLocked(double when, EventFn fn, bool profile,
                                bool &queued)
{
    EventId id = nextId_++;
    Timer t;
    t.fn = std::move(fn);
    t.alive = std::make_shared<std::atomic<bool>>(true);
    t.scheduledAt = nowImpl();
    t.profile = profile;
    // Capture the ambient observability context so the timer fires
    // inside the trace/phase of the code scheduling it, exactly as
    // the simulator captures it into event slots.  Runtime-internal
    // timers (link drains) skip the capture: they are plumbing, not
    // protocol work, and must not inherit or attribute a phase.
    if (profile) {
        if (const Tracer *tr = Tracer::active())
            t.ctx = tr->current();
        if (const PhaseProfiler *pp = PhaseProfiler::active())
            t.label = pp->currentLabel();
    }
    aliveOf_.emplace(id, t.alive);
    queued = when <= t.scheduledAt;
    if (queued) {
        // Already due (a zero-delay timer, an instant link drain):
        // it fires now, straight onto tasks_.  A trip through the
        // wheel would only add a hand-off to the timer thread and
        // back, and that thread's wake-up jitter, to the request.
        RtMetricIds &rm = rtMetrics();
        rm.reg->observe(rm.timerLateness, t.scheduledAt - when);
        rm.reg->inc(rm.timersFired);
        tasks_.push_back(toTask(id, t, t.scheduledAt));
        return id;
    }
    // Due before the timer thread's next planned pass: pull that
    // pass in to the deadline and wake the thread to re-plan its
    // sleep.
    if (when < nextPass_) {
        nextPass_ = when;
        timerWake_ = true;
    }
    // A deadline behind the last pass goes in the slot that pass
    // left off at, which the next pass visits first; in its own
    // tick's slot it would sit unseen for a whole rotation.
    std::size_t slot = std::max(tickOf(when), lastTick_) % wheelSlots;
    wheel_[slot].emplace(std::make_pair(when, id), std::move(t));
    occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    slotOf_.emplace(id, std::make_pair(slot, when));
    return id;
}

EventId
ThreadedRuntime::schedule(SimTime delay, EventFn fn)
{
    double when = nowImpl() + std::max(delay, 0.0);
    EventId id;
    bool queued, wake;
    {
        std::lock_guard<std::mutex> lk(mu_);
        id = scheduleLocked(when, std::move(fn), /*profile=*/true, queued);
        if (queued)
            handOffLocked(/*now=*/false);
        wake = timerWake_;
    }
    rtMetrics().reg->inc(rtMetrics().timersSet);
    if (wake)
        timerCv_.notify_one();
    return id;
}

EventId
ThreadedRuntime::scheduleAt(SimTime when, EventFn fn)
{
    return schedule(when - nowImpl(), std::move(fn));
}

void
ThreadedRuntime::cancel(EventId id)
{
    if (id == invalidEventId)
        return;
    bool erased = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // The tombstone outlives the wheel entry: a due timer that
        // timerLoop already moved into tasks_ is still cancellable
        // until runTask checks the flag on the strand.
        auto ait = aliveOf_.find(id);
        if (ait != aliveOf_.end()) {
            ait->second->store(false, std::memory_order_release);
            aliveOf_.erase(ait);
            erased = true;
        }
        auto it = slotOf_.find(id);
        if (it != slotOf_.end()) {
            auto [slot, when] = it->second;
            wheel_[slot].erase({when, id});
            if (wheel_[slot].empty())
                occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
            slotOf_.erase(it);
        }
    }
    if (erased)
        rtMetrics().reg->inc(rtMetrics().timersCancelled);
}

void
ThreadedRuntime::post(EventFn fn)
{
    Task t;
    t.fn = std::move(fn);
    t.scheduledAt = t.enqueuedAt = nowImpl();
    if (const Tracer *tr = Tracer::active())
        t.ctx = tr->current();
    if (const PhaseProfiler *pp = PhaseProfiler::active())
        t.label = pp->currentLabel();
    bool wake;
    {
        std::lock_guard<std::mutex> lk(mu_);
        tasks_.push_back(std::move(t));
        handOffLocked(/*now=*/false);
        wake = timerWake_;
    }
    if (wake)
        timerCv_.notify_one();
}

bool
ThreadedRuntime::attendedLocked() const
{
    // An awake worker or a helping runUntil() caller re-checks
    // tasks_ before it sleeps or returns.
    return helping_ > 0 || idle_ < cfg_.workers;
}

void
ThreadedRuntime::handOffLocked(bool now)
{
    if (tasks_.empty() || attendedLocked())
        return;
    // A runUntil() caller asleep on an empty queue is blocked anyway:
    // it runs the work itself, as it does the work it queued.
    if (!sleepers_.empty()) {
        Waiter *w = sleepers_.back();
        sleepers_.pop_back();
        w->help = true;
        helping_++;
        w->cv.notify_one();
        return;
    }
    if (now) {
        workCv_.notify_one();
        return;
    }
    // Work a client thread queued, or left behind when its wait
    // ended: that thread usually comes straight back through
    // runUntil() and runs it there, so waking a worker now would
    // only add a thread hand-off (and its wake-up jitter) to the
    // request.  The timer thread wakes one if the work still sits
    // unattended a tick from now.
    if (unattendedAt_ != noPass)
        return;
    unattendedAt_ = nowImpl();
    backstops_++;
    if (unattendedAt_ + cfg_.tick < nextPass_) {
        nextPass_ = unattendedAt_ + cfg_.tick;
        timerWake_ = true;
    }
}

NodeId
ThreadedRuntime::addNode(SimNode *node, double x, double y)
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.addNode(node, x, y);
}

void
ThreadedRuntime::removeNode(NodeId id)
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.removeNode(id);
}

std::size_t
ThreadedRuntime::nodeCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.size();
}

double
ThreadedRuntime::latency(NodeId a, NodeId b) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.latency(a, b);
}

double
ThreadedRuntime::distance(NodeId a, NodeId b) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.distance(a, b);
}

double
ThreadedRuntime::xOf(NodeId n) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.xOf(n);
}

double
ThreadedRuntime::yOf(NodeId n) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.yOf(n);
}

void
ThreadedRuntime::setDown(NodeId n)
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.setDown(n);
}

void
ThreadedRuntime::setUp(NodeId n)
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.setUp(n);
}

bool
ThreadedRuntime::isUp(NodeId n) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.isUp(n);
}

void
ThreadedRuntime::setPartition(NodeId n, int partition)
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.setPartition(n, partition);
}

void
ThreadedRuntime::healPartitions()
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.healPartitions();
}

void
ThreadedRuntime::heal(int a, int b)
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.heal(a, b);
}

void
ThreadedRuntime::setFaultInjector(FaultHook *hook)
{
    std::lock_guard<std::mutex> lk(mu_);
    link_.setFaultInjector(hook);
}

std::uint64_t
ThreadedRuntime::totalBytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.totalBytes();
}

std::uint64_t
ThreadedRuntime::totalMessages() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return link_.totalMessages();
}

std::size_t
ThreadedRuntime::inFlight() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return inFlight_;
}

std::uint64_t
ThreadedRuntime::mixSeed(std::uint64_t salt) const
{
    return mixSeed64(cfg_.seed, salt);
}

std::uint64_t
ThreadedRuntime::uniqueStamp() const
{
    return stamp_.fetch_add(1, std::memory_order_relaxed);
}

RuntimeStats
ThreadedRuntime::stats() const
{
    RuntimeStats s;
    s.uptime = nowImpl();
    {
        std::lock_guard<std::mutex> lk(mu_);
        s.strandQueueDepth = tasks_.size();
        s.timersPending = slotOf_.size();
        for (std::uint64_t bits : occupied_)
            s.wheelSlotsOccupied += std::popcount(bits);
        for (const auto &kv : links_)
            if (!kv.second.q.empty())
                s.linksActive++;
        s.linkQueuedMessages = inFlight_;
        s.linkQueuedBytes = linkQueuedBytes_;
    }
    s.workers = cfg_.workers;
    s.tasksExecuted = tasksRun_.load(std::memory_order_relaxed);
    double busy =
        static_cast<double>(
            busyNanos_.load(std::memory_order_relaxed)) *
        1e-9;
    double capacity = s.uptime * static_cast<double>(cfg_.workers);
    if (capacity > 0.0)
        s.workerUtilization = std::min(1.0, busy / capacity);
    return s;
}

void
ThreadedRuntime::enqueueDeliveries(
    NodeId from, const std::shared_ptr<const Message> &msg,
    const std::shared_ptr<const Bytes> &frame, std::vector<Pending> &legs)
{
    bool wake;
    bool posted = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (Pending &p : legs) {
            std::uint64_t key = linkKey(from, p.to);
            Link &l = links_[key];
            p.msg = msg;
            p.frame = frame;
            l.q.push_back(std::move(p));
            inFlight_++;
            linkQueuedBytes_ += msg->totalBytes();
            // The drain timer is re-armed from drainLink for each
            // subsequent queue head; only an idle link arms here.
            if (!l.armed) {
                l.armed = true;
                posted |= armLinkLocked(key, l.q.front().due);
            }
        }
        if (posted)
            handOffLocked(/*now=*/false);
        wake = timerWake_;
    }
    if (wake)
        timerCv_.notify_one();
}

bool
ThreadedRuntime::armLinkLocked(std::uint64_t key, double due)
{
    // profile=false: the drain is transport plumbing; phase
    // attribution happens once per delivery in deliverPending, the
    // way the sim attributes each delivery event exactly once.
    // A drain due within instantLag (instant delivery) fires now.
    double t = nowImpl();
    bool queued;
    scheduleLocked(due <= t + instantLag ? t : due,
                   [this, key] { drainLink(key); }, /*profile=*/false,
                   queued);
    return queued;
}

void
ThreadedRuntime::drainLink(std::uint64_t key)
{
    // Runs on the strand (all timers do).  Delivers every due head
    // in FIFO order, then either disarms or re-arms for the next
    // head's deadline.
    for (;;) {
        Pending p;
        {
            std::unique_lock<std::mutex> lk(mu_);
            Link &l = links_[key];
            if (l.q.empty()) {
                l.armed = false;
                return;
            }
            if (l.q.front().due > nowImpl() + instantLag) {
                armLinkLocked(key, l.q.front().due);
                bool wake = timerWake_;
                lk.unlock();
                if (wake)
                    timerCv_.notify_one();
                return;
            }
            p = std::move(l.q.front());
            l.q.pop_front();
            inFlight_--;
            linkQueuedBytes_ -= p.msg->totalBytes();
        }
        deliverPending(p);
    }
}

void
ThreadedRuntime::deliverPending(const Pending &p)
{
    RtMetricIds &rm = rtMetrics();
    // One phase attribution per delivery, keyed by message type and
    // charged the send->handle wall latency — the threaded analogue
    // of the sim network's per-delivery ScopedPhase.
    PhaseProfiler *pp = PhaseProfiler::active();
    PhaseProfiler::Label label = 0;
    if (pp) {
        label = pp->labelForMessageType(p.msg->type);
        pp->onEventFired(label, nowImpl() - p.sentAt);
    }
    ScopedPhase phase(pp, label);
    // Decode + verify the frame exactly as a socket receiver would
    // before trusting any field of the out-of-band payload.
    auto head = decodeFrame(*p.frame);
    if (!head || head->type != p.msg->type ||
        head->src != p.msg->src || head->nonce != p.msg->nonce) {
        rm.reg->inc(rm.frameErrors);
        return;
    }
    SimNode *dest = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        dest = link_.arrival(p.msg->src, p.to);
    }
    if (dest == nullptr) {
        rm.reg->inc(rm.arrivalDrops);
        return;
    }
    rm.reg->inc(rm.delivered);
    Tracer *tr = Tracer::active();
    bool traced = tr && p.msg->trace.valid();
    if (traced)
        tr->setCurrent(p.msg->trace);
    dest->handleMessage(*p.msg);
    if (traced)
        tr->clearCurrent();
}

void
ThreadedRuntime::send(NodeId from, NodeId to, Message msg)
{
    transmit(from, {&to, 1}, std::move(msg), /*fanout=*/false);
}

void
ThreadedRuntime::multicast(NodeId from, const std::vector<NodeId> &tos,
                           Message msg)
{
    transmit(from, tos, std::move(msg), /*fanout=*/true);
}

void
ThreadedRuntime::transmit(NodeId from, std::span<const NodeId> tos,
                          Message msg, bool fanout)
{
    msg.src = from;
    std::size_t bytes = msg.totalBytes();
    double sendT = nowImpl();
    bool known;
    std::size_t drops = 0;
    std::vector<Pending> legs;
    {
        // One lock for the whole route decision, so the link model's
        // draws for one transmission are never interleaved.
        std::lock_guard<std::mutex> lk(mu_);
        known = link_.known(from);
        for (NodeId to : tos)
            known = known && link_.known(to);
        if (known && !tos.empty()) {
            link_.account(msg.type, bytes, tos.size());
            for (NodeId to : tos) {
                LinkModel::Leg leg = link_.route(from, to, bytes);
                if (leg.drop) {
                    drops++;
                    continue;
                }
                // A duplicate queues behind the original on the same
                // FIFO link.
                legs.push_back({{}, {}, sendT + leg.latency, sendT, to});
                if (leg.duplicate)
                    legs.push_back(
                        {{}, {}, sendT + leg.dupLatency, sendT, to});
            }
        }
    }
    if (!known)
        fatal("ThreadedRuntime: send to or from an unknown node");
    if (tos.empty())
        return;
    RtMetricIds &rm = rtMetrics();
    rm.reg->inc(rm.sends, tos.size());
    rm.reg->inc(rm.bytes, bytes * tos.size());
    if (drops > 0)
        rm.reg->inc(rm.drops, drops);
    // One span per transmission (a fan-out's peer is its destination
    // count), ending at the latest leg's delivery — the same shape
    // the sim network records.
    if (Tracer *tr = Tracer::active()) {
        double end = sendT;
        for (const Pending &p : legs)
            end = std::max(end, p.due);
        std::uint32_t peer =
            fanout ? static_cast<std::uint32_t>(tos.size()) : tos[0];
        msg.trace = tr->messageSpan(
            msg.type, from, peer, bytes, sendT, end,
            fanout ? SpanKind::Multicast : SpanKind::Send,
            legs.empty() ? SpanStatus::Dropped : SpanStatus::Ok);
    }
    if (legs.empty())
        return;
    // One payload, one frame, shared by every leg — the loopback
    // analogue of the sim network's pooled flights.
    auto frame = std::make_shared<const Bytes>(encodeFrame(msg));
    rm.reg->inc(rm.frameBytes, frame->size() * legs.size());
    auto shared = std::make_shared<const Message>(std::move(msg));
    enqueueDeliveries(from, shared, frame, legs);
}

bool
ThreadedRuntime::runUntil(const std::function<bool()> &pred,
                          SimTime deadline)
{
    // Waiting from a strand callback can never succeed: the strand
    // stays held, so the completion task that would satisfy pred
    // cannot run — the call would block until the deadline.  Fail
    // fast instead: sync wrappers (readSync/writeSync/restoreSync)
    // must only be called from client threads, never from runtime
    // callbacks.
    OS_CHECK(strandOwner_.load(std::memory_order_acquire) !=
                 std::this_thread::get_id(),
             "ThreadedRuntime::runUntil called from a runtime "
             "callback; sync wrappers must not run on the strand");
    Waiter w;
    w.pred = &pred;
    std::unique_lock<std::mutex> lk(mu_);
    helping_++;
    for (;;) {
        // Run queued work on this thread until pred holds, the
        // deadline passes or the queue is empty: the caller is
        // blocked anyway, and work it runs itself costs no thread
        // hand-off.
        unattendedAt_ = noPass;
        lk.unlock();
        bool ok = false;
        execute([&] {
            std::erase(waiters_, &w);
            while (!(ok = pred()) && nowImpl() <= deadline &&
                   runNextTask()) {
            }
            if (!ok)
                waiters_.push_back(&w);
        });
        lk.lock();
        helping_--;
        // Work still queued (the tail of the request, or another
        // caller's) goes to whoever is asleep in runUntil, else to a
        // worker.
        handOffLocked(/*now=*/false);
        if (timerWake_)
            timerCv_.notify_one();
        if (ok)
            return true;
        // Sleep until a strand section finds pred true (wakeWaiters),
        // work arrives with nobody to run it (handOffLocked), the
        // deadline passes, or shutdown() stops all progress.  Each
        // wait is capped at an hour so a far deadline cannot overflow
        // the steady clock.
        sleepers_.push_back(&w);
        while (!w.done && !w.help && !halted_ && nowImpl() <= deadline)
            w.cv.wait_until(
                lk, wallAt(std::min(deadline, nowImpl() + 3600.0)));
        if (!w.help)
            std::erase(sleepers_, &w);
        if (w.done) {
            // wakeWaiters already deregistered w; a hand-off that
            // raced it goes to the next in line.
            if (w.help) {
                helping_--;
                handOffLocked(/*now=*/false);
                if (timerWake_)
                    timerCv_.notify_one();
            }
            return true;
        }
        if (!w.help)
            break; // deadline or shutdown
        w.help = false; // handOffLocked counted us in helping_
    }
    lk.unlock();
    bool ok = false;
    execute([&] {
        std::erase(waiters_, &w);
        ok = pred();
    });
    return ok;
}

void
ThreadedRuntime::advance(SimTime seconds)
{
    if (seconds > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

void
ThreadedRuntime::runOnStrand(const std::function<void()> &fn)
{
    std::thread::id self = std::this_thread::get_id();
    if (strandOwner_.load(std::memory_order_acquire) == self) {
        fn(); // reentrant: already on the strand
        return;
    }
    std::lock_guard<StrandLock> lk(strandMu_);
    strandOwner_.store(self, std::memory_order_release);
    // Clear ownership on unwind too: a stale owner id would let this
    // thread's next execute() take the reentrant path without holding
    // strandMu_, racing whoever legitimately owns the strand.
    struct OwnerReset
    {
        std::atomic<std::thread::id> &owner;
        ~OwnerReset()
        {
            owner.store(std::thread::id{},
                        std::memory_order_release);
        }
    } reset{strandOwner_};
    fn();
    if (!waiters_.empty())
        wakeWaiters();
}

void
ThreadedRuntime::wakeWaiters()
{
    for (auto it = waiters_.begin(); it != waiters_.end();) {
        Waiter *w = *it;
        if (!(*w->pred)()) {
            ++it;
            continue;
        }
        it = waiters_.erase(it);
        // Notify under mu_: w may be gone once it is released.
        std::lock_guard<std::mutex> lk(mu_);
        w->done = true;
        w->cv.notify_one();
    }
}

void
ThreadedRuntime::execute(const std::function<void()> &fn)
{
    runOnStrand(fn);
}

void
ThreadedRuntime::timerLoop()
{
    RtMetricIds &rm = rtMetrics();
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        double t = nowImpl();
        if (t < nextPass_) {
            timerWake_ = false;
            auto woken = [this] { return stop_ || timerWake_; };
            if (nextPass_ == noPass)
                timerCv_.wait(lk, woken);
            else
                timerCv_.wait_until(lk, wallAt(nextPass_), woken);
            continue;
        }
        std::uint64_t cur = tickOf(t);
        // Visit every slot whose tick came due since the last pass,
        // *including* the current tick's slot again (a zero-delay
        // timer lands in it while lastTick_ == cur); a long sleep
        // visits each slot at most once.  Within a slot, entries are
        // in deadline order, so the scan stops at the first timer
        // not yet due: later in this tick, or a later rotation.
        std::uint64_t span = std::min<std::uint64_t>(
            cur - lastTick_ + 1, wheelSlots);
        std::vector<std::pair<std::pair<double, EventId>, Task>>
            due;
        for (std::uint64_t i = 0; i < span; i++) {
            std::size_t slot = (lastTick_ + i) % wheelSlots;
            auto &bucket = wheel_[slot];
            for (auto it = bucket.begin();
                 it != bucket.end() && it->first.first <= t;
                 it = bucket.erase(it)) {
                auto [when, id] = it->first;
                rm.reg->observe(rm.timerLateness, t - when);
                due.emplace_back(it->first, toTask(id, it->second, t));
                slotOf_.erase(id);
            }
            if (bucket.empty())
                occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        }
        lastTick_ = cur;
        // Backstop for work client threads queued or left behind: if
        // no runUntil() caller has come back for it within a tick,
        // a worker runs it.
        if (unattendedAt_ != noPass && t >= unattendedAt_ + cfg_.tick) {
            unattendedAt_ = noPass;
            handOffLocked(/*now=*/true);
        }
        // Plan the next pass at the earliest deadline left on the
        // wheel (each slot's first entry is its earliest) or of the
        // backstop, or none: an idle runtime costs no wake-ups.
        // While clients keep starting the backstop clock, look again
        // a tick later rather than have each start wake this thread.
        bool busy = backstops_ != backstopsSeen_;
        backstopsSeen_ = backstops_;
        if (unattendedAt_ != noPass)
            nextPass_ = unattendedAt_ + cfg_.tick;
        else
            nextPass_ = busy ? t + cfg_.tick : noPass;
        for (std::size_t w = 0; w < occupied_.size(); w++)
            for (std::uint64_t bits = occupied_[w]; bits != 0;
                 bits &= bits - 1) {
                std::size_t slot = w * 64 + std::countr_zero(bits);
                nextPass_ = std::min(nextPass_,
                                     wheel_[slot].begin()->first.first);
            }
        if (!due.empty()) {
            // Deterministic tie-break within a batch: fire in
            // (deadline, schedule-order) order like the sim's queue.
            std::sort(due.begin(), due.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (auto &d : due)
                tasks_.push_back(std::move(d.second));
            rm.reg->inc(rm.timersFired, due.size());
            handOffLocked(/*now=*/true);
        }
    }
}

ThreadedRuntime::Task
ThreadedRuntime::toTask(EventId id, Timer &tm, double now)
{
    Task task;
    task.fn = std::move(tm.fn);
    task.ctx = tm.ctx;
    task.alive = std::move(tm.alive);
    task.timerId = id;
    task.scheduledAt = tm.scheduledAt;
    task.enqueuedAt = now;
    task.label = tm.label;
    task.profile = tm.profile;
    return task;
}

void
ThreadedRuntime::runTask(Task &task)
{
    // Timer work checks its tombstone here, on the strand and
    // immediately before invoking: a cancel() issued any time up to
    // this point (including from another strand callback after the
    // timer left the wheel) suppresses the body, matching the
    // sim's cancel-prevents-fire contract that RpcCall and the
    // failure detectors rely on.
    if (task.alive && !task.alive->load(std::memory_order_acquire))
        return;
    // Restore the causal context captured when the work was queued,
    // exactly as the simulator does around every event callback, and
    // attribute the schedule->run delay to the captured phase
    // (cancelled timers, skipped above, are never attributed).  The
    // thread's own context is put back afterwards: a runUntil()
    // caller runs tasks on its own thread.
    Tracer *tr = Tracer::active();
    bool traced = tr && task.ctx.valid();
    TraceContext prevCtx;
    if (traced) {
        prevCtx = tr->current();
        tr->setCurrent(task.ctx);
    }
    PhaseProfiler *pp = task.profile ? PhaseProfiler::active() : nullptr;
    PhaseProfiler::Label prevLabel = 0;
    if (pp) {
        pp->onEventFired(task.label, nowImpl() - task.scheduledAt);
        prevLabel = pp->currentLabel();
        pp->setCurrent(task.label);
    }
    task.fn();
    if (pp)
        pp->setCurrent(prevLabel);
    if (traced)
        tr->setCurrent(prevCtx);
}

void
ThreadedRuntime::workerLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (!stop_ && tasks_.empty()) {
                idle_++;
                workCv_.wait(lk, [this] {
                    return stop_ || !tasks_.empty();
                });
                idle_--;
                unattendedAt_ = noPass;
            }
            if (tasks_.empty()) {
                if (stop_)
                    return; // drained: graceful exit
                continue;
            }
        }
        // Take the strand BEFORE popping: if workers popped first
        // and then raced for the strand, two queued tasks could run
        // out of queue order, breaking the FIFO guarantees (posted
        // work, same-batch timer order) the conformance suite pins.
        runOnStrand([this] { runNextTask(); });
    }
}

bool
ThreadedRuntime::runNextTask()
{
    Task task;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (tasks_.empty())
            return false; // another thread drained it first
        task = std::move(tasks_.front());
        tasks_.pop_front();
    }
    RtMetricIds &rm = rtMetrics();
    rm.reg->inc(rm.tasks);
    rm.reg->observe(rm.taskDelay,
                    nowImpl() - task.enqueuedAt);
    auto t0 = std::chrono::steady_clock::now();
    runTask(task);
    busyNanos_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<
                std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    tasksRun_.fetch_add(1, std::memory_order_relaxed);
    if (task.timerId != invalidEventId) {
        // The callback ran (or was tombstone-skipped); from
        // here on cancel(timerId) is a no-op by design.
        std::lock_guard<std::mutex> lk(mu_);
        aliveOf_.erase(task.timerId);
    }
    return true;
}

} // namespace oceanstore
