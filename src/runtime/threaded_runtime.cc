#include "runtime/threaded_runtime.h"

#include <algorithm>
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
        frameErrors, taskDelay;

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
          taskDelay(reg->histogram("runtime.task_delay", 0.0, 2.5, 50))
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
}

double
ThreadedRuntime::nowImpl() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

SimTime ThreadedRuntime::now() const { return nowImpl(); }

std::uint64_t
ThreadedRuntime::tickOf(double when) const
{
    double t = std::ceil(when / cfg_.tick);
    return t <= 0.0 ? 0 : static_cast<std::uint64_t>(t);
}

EventId
ThreadedRuntime::scheduleLocked(double when, EventFn fn, bool profile)
{
    EventId id = nextId_++;
    Timer t;
    t.when = when;
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
    std::size_t slot = tickOf(when) % wheelSlots;
    aliveOf_.emplace(id, t.alive);
    wheel_[slot].emplace(id, std::move(t));
    slotOf_.emplace(id, slot);
    return id;
}

EventId
ThreadedRuntime::schedule(SimTime delay, EventFn fn)
{
    double when = nowImpl() + std::max(delay, 0.0);
    EventId id;
    {
        std::lock_guard<std::mutex> lk(mu_);
        id = scheduleLocked(when, std::move(fn));
    }
    rtMetrics().reg->inc(rtMetrics().timersSet);
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
            wheel_[it->second].erase(id);
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
    {
        std::lock_guard<std::mutex> lk(mu_);
        tasks_.push_back(std::move(t));
    }
    workCv_.notify_one();
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
        for (const auto &bucket : wheel_)
            if (!bucket.empty())
                s.wheelSlotsOccupied++;
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
    bool armed = false;
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
                armLinkLocked(key, l.q.front().due);
                armed = true;
            }
        }
    }
    if (armed)
        timerCv_.notify_one();
}

void
ThreadedRuntime::armLinkLocked(std::uint64_t key, double due)
{
    // profile=false: the drain timer is transport plumbing; phase
    // attribution happens once per delivery in deliverPending, the
    // way the sim attributes each delivery event exactly once.
    scheduleLocked(due, [this, key] { drainLink(key); },
                   /*profile=*/false);
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
            std::lock_guard<std::mutex> lk(mu_);
            Link &l = links_[key];
            if (l.q.empty()) {
                l.armed = false;
                return;
            }
            if (l.q.front().due > nowImpl() + 1e-9) {
                armLinkLocked(key, l.q.front().due);
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
    // Polling from a strand callback can never succeed: the
    // reentrant execute keeps the strand held, so the completion
    // task that would satisfy pred cannot run — the call would spin
    // until the deadline.  Fail fast instead: sync wrappers
    // (readSync/writeSync/restoreSync) must only be called from
    // client threads, never from runtime callbacks.
    OS_CHECK(strandOwner_.load(std::memory_order_acquire) !=
                 std::this_thread::get_id(),
             "ThreadedRuntime::runUntil called from a runtime "
             "callback; sync wrappers must not run on the strand");
    for (;;) {
        bool ok = false;
        execute([&] { ok = pred(); });
        if (ok)
            return true;
        if (nowImpl() > deadline)
            return false;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg_.tick));
    }
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
    std::lock_guard<std::mutex> lk(strandMu_);
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
}

void
ThreadedRuntime::execute(const std::function<void()> &fn)
{
    runOnStrand(fn);
}

void
ThreadedRuntime::timerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
        double t = nowImpl();
        std::uint64_t cur = tickOf(t);
        // Visit every slot whose tick came due since the last pass,
        // *including* the current tick's slot again (a zero-delay
        // timer lands in it while lastTick_ == cur); a long sleep
        // visits each slot at most once.
        std::uint64_t span = std::min<std::uint64_t>(
            cur - lastTick_ + 1, wheelSlots);
        std::vector<std::pair<std::pair<double, EventId>, Task>>
            due;
        for (std::uint64_t i = 0; i < span; i++) {
            std::size_t slot =
                (lastTick_ + i) % wheelSlots;
            auto &bucket = wheel_[slot];
            for (auto it = bucket.begin(); it != bucket.end();) {
                if (tickOf(it->second.when) <= cur) {
                    Task task;
                    task.fn = std::move(it->second.fn);
                    task.ctx = it->second.ctx;
                    task.alive = std::move(it->second.alive);
                    task.timerId = it->first;
                    task.scheduledAt = it->second.scheduledAt;
                    task.enqueuedAt = t;
                    task.label = it->second.label;
                    task.profile = it->second.profile;
                    due.emplace_back(
                        std::make_pair(it->second.when, it->first),
                        std::move(task));
                    slotOf_.erase(it->first);
                    it = bucket.erase(it);
                } else {
                    ++it;
                }
            }
        }
        lastTick_ = cur;
        if (!due.empty()) {
            // Deterministic tie-break within a batch: fire in
            // (deadline, schedule-order) order like the sim's queue.
            std::sort(due.begin(), due.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (auto &d : due)
                tasks_.push_back(std::move(d.second));
            rtMetrics().reg->inc(rtMetrics().timersFired, due.size());
            workCv_.notify_all();
        }
        timerCv_.wait_for(
            lk, std::chrono::duration<double>(cfg_.tick),
            [this] { return stop_; });
    }
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
    // (cancelled timers, skipped above, are never attributed).
    Tracer *tr = Tracer::active();
    bool traced = tr && task.ctx.valid();
    if (traced)
        tr->setCurrent(task.ctx);
    PhaseProfiler *pp = task.profile ? PhaseProfiler::active() : nullptr;
    if (pp) {
        pp->onEventFired(task.label, nowImpl() - task.scheduledAt);
        pp->setCurrent(task.label);
    }
    task.fn();
    if (pp)
        pp->setCurrent(0);
    if (traced)
        tr->clearCurrent();
}

void
ThreadedRuntime::workerLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [this] {
                return stop_ || !tasks_.empty();
            });
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
        runOnStrand([this] {
            Task task;
            {
                std::lock_guard<std::mutex> lk(mu_);
                if (tasks_.empty())
                    return; // another worker drained it first
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
        });
    }
}

} // namespace oceanstore
