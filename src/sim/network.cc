#include "sim/network.h"

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace oceanstore {

namespace {

/** Interned metric ids, registered once on first use. */
struct NetMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id sends, bytes, drops, arrivalDrops, delivered,
        dup, inFlight;

    NetMetricIds()
        : reg(&MetricsRegistry::global()),
          sends(reg->counter("net.sends")),
          bytes(reg->counter("net.bytes")),
          drops(reg->counter("net.drops")),
          arrivalDrops(reg->counter("net.arrival_drops")),
          delivered(reg->counter("net.delivered")),
          dup(reg->counter("net.dup")),
          inFlight(reg->gauge("net.in_flight"))
    {
    }
};

NetMetricIds &
netMetrics()
{
    static NetMetricIds ids;
    return ids;
}

} // namespace

Network::Network(Simulator &sim, NetworkConfig cfg)
    : LinkModel(cfg), sim_(sim)
{
}

std::uint32_t
Network::allocFlight(Message &&msg)
{
    MutexLock lock(mu_);
    if (!freeFlights_.empty()) {
        std::uint32_t f = freeFlights_.back();
        freeFlights_.pop_back();
        flights_[f].msg = std::move(msg);
        return f;
    }
    flights_.push_back(Flight{std::move(msg), 0});
    return static_cast<std::uint32_t>(flights_.size() - 1);
}

void
Network::releaseFlight(std::uint32_t flight)
{
    MutexLock lock(mu_);
    Flight &fl = flights_[flight];
    OS_DCHECK(fl.refs > 0, "Network: flight over-released");
    if (--fl.refs == 0) {
        fl.msg = Message(); // drop the payload eagerly
        freeFlights_.push_back(flight);
    }
}

void
Network::pinFlight(std::uint32_t flight)
{
    MutexLock lock(mu_);
    flights_[flight].refs++;
}

const Message &
Network::flightMsg(std::uint32_t flight) const
{
    MutexLock lock(mu_);
    return flights_[flight].msg;
}

void
Network::scheduleDelivery(std::uint32_t flight, NodeId to, double lat)
{
    std::size_t nowInFlight;
    {
        MutexLock lock(mu_);
        flights_[flight].refs++;
        inFlight_++;
        nowInFlight = inFlight_;
    }
    {
        NetMetricIds &nm = netMetrics();
        nm.reg->set(nm.inFlight, static_cast<double>(nowInFlight));
    }
    // Label the delivery event with the message's component prefix
    // ("pbft.prepare" -> "pbft") so the profiler attributes the
    // event-loop phase breakdown per protocol layer.
    PhaseProfiler *pp = PhaseProfiler::active();
    ScopedPhase phase(
        pp, pp ? pp->labelForMessageType(flightMsg(flight).type) : 0);
    // Captures 12 bytes: stays in EventFn's inline buffer, so the
    // whole send costs no heap allocation.  Delivery events carry no
    // cancellation token by design: they *are* the simulated network,
    // and the Network outlives the drained event queue.
    // oslint-allow(lifetime): deliveries are owned by the run; the Network outlives them
    sim_.schedule(lat, [this, flight, to]() { deliver(flight, to); });
}

void
Network::deliver(std::uint32_t flight, NodeId to)
{
    std::size_t nowInFlight;
    {
        MutexLock lock(mu_);
        inFlight_--;
        nowInFlight = inFlight_;
    }
    NetMetricIds &nm = netMetrics();
    nm.reg->set(nm.inFlight, static_cast<double>(nowInFlight));
    const Message &m = flightMsg(flight);
    if (SimNode *dest = arrival(m.src, to)) {
        nm.reg->inc(nm.delivered);
        // Make the message's span the ambient causal parent for
        // everything the handler does (nested sends, timers).
        Tracer *tr = Tracer::active();
        bool traced = tr && m.trace.valid();
        if (traced)
            tr->setCurrent(m.trace);
        // The handler may reentrantly send (allocating new flights);
        // flights_ is a deque so &m stays valid throughout.
        dest->handleMessage(m);
        if (traced)
            tr->clearCurrent();
    } else {
        nm.reg->inc(nm.arrivalDrops);
    }
    releaseFlight(flight);
}

void
Network::send(NodeId from, NodeId to, Message msg)
{
    if (!known(from) || !known(to))
        fatal("Network::send: unknown node");

    msg.src = from;
    std::size_t bytes = msg.totalBytes();
    account(msg.type, bytes);
    NetMetricIds &nm = netMetrics();
    nm.reg->inc(nm.sends);
    nm.reg->inc(nm.bytes, bytes);
    Tracer *tr = Tracer::active();

    // Every rng draw happens in route(), before tracing, so the
    // stream is identical whether or not a tracer is attached.
    // Dropped transmissions (crashed sender included) still get a
    // span marked Dropped so retry trees show every attempt.
    LinkModel::Leg leg = route(from, to, bytes);
    if (leg.drop) {
        nm.reg->inc(nm.drops);
        if (tr)
            tr->messageSpan(msg.type, from, to,
                            static_cast<std::uint32_t>(bytes),
                            sim_.now(), sim_.now(), SpanKind::Send,
                            SpanStatus::Dropped);
        return;
    }
    if (leg.duplicate)
        nm.reg->inc(nm.dup);
    if (tr)
        msg.trace = tr->messageSpan(
            msg.type, from, to, static_cast<std::uint32_t>(bytes),
            sim_.now(),
            sim_.now() + (leg.duplicate ? leg.dupLatency : leg.latency),
            SpanKind::Send, SpanStatus::Ok);
    std::uint32_t flight = allocFlight(std::move(msg));
    if (leg.duplicate) {
        // Pin the flight so both copies share one payload slot.
        pinFlight(flight);
        scheduleDelivery(flight, to, leg.latency);
        scheduleDelivery(flight, to, leg.dupLatency);
        releaseFlight(flight);
        return;
    }
    scheduleDelivery(flight, to, leg.latency);
}

void
Network::multicast(NodeId from, const std::vector<NodeId> &tos,
                   Message msg)
{
    if (!known(from))
        fatal("Network::multicast: unknown sender");
    if (tos.empty())
        return;
    for (NodeId to : tos) {
        if (!known(to))
            fatal("Network::multicast: unknown node");
    }

    msg.src = from;
    std::size_t bytes = msg.totalBytes();
    // Every destination is one link crossing, exactly as if sent
    // individually.
    account(msg.type, bytes, tos.size());
    NetMetricIds &nm = netMetrics();
    nm.reg->inc(nm.sends, tos.size());
    nm.reg->inc(nm.bytes, bytes * tos.size());
    Tracer *tr = Tracer::active();

    if (!isUp(from)) {
        nm.reg->inc(nm.drops, tos.size());
        if (tr)
            tr->messageSpan(msg.type, from,
                            static_cast<std::uint32_t>(tos.size()),
                            static_cast<std::uint32_t>(bytes),
                            sim_.now(), sim_.now(),
                            SpanKind::Multicast, SpanStatus::Dropped);
        return;
    }

    // One span covers the whole fan-out (peer = destination count);
    // its end time is extended to the latest scheduled delivery as
    // the legs below are drawn.
    std::uint32_t fanoutSpan = 0;
    if (tr) {
        msg.trace = tr->messageSpan(
            msg.type, from, static_cast<std::uint32_t>(tos.size()),
            static_cast<std::uint32_t>(bytes), sim_.now(), sim_.now(),
            SpanKind::Multicast, SpanStatus::Ok);
        fanoutSpan = msg.trace.spanId;
    }
    std::uint32_t flight = allocFlight(std::move(msg));
    // Pin the flight while scheduling so an immediate zero-ref free
    // cannot recycle it if every destination drops.
    pinFlight(flight);
    for (NodeId to : tos) {
        LinkModel::Leg leg = route(from, to, bytes);
        if (leg.drop) {
            nm.reg->inc(nm.drops);
            continue;
        }
        if (leg.duplicate) {
            nm.reg->inc(nm.dup);
            if (tr)
                tr->setSpanEnd(fanoutSpan, sim_.now() + leg.dupLatency);
            scheduleDelivery(flight, to, leg.dupLatency);
        }
        if (tr)
            tr->setSpanEnd(fanoutSpan, sim_.now() + leg.latency);
        scheduleDelivery(flight, to, leg.latency);
    }
    releaseFlight(flight);
}

} // namespace oceanstore
