#include "runtime/fault.h"

#include "obs/metrics.h"
#include "util/check.h"

namespace oceanstore {

namespace {

/** Interned metric ids, registered once on first use. */
struct FaultMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id inspected, dropped, duplicated, delayed;

    FaultMetricIds()
        : reg(&MetricsRegistry::global()),
          inspected(reg->counter("fault.inspected")),
          dropped(reg->counter("fault.drops")),
          duplicated(reg->counter("fault.dups")),
          delayed(reg->counter("fault.delays"))
    {
    }
};

FaultMetricIds &
faultMetrics()
{
    static FaultMetricIds ids;
    return ids;
}

} // namespace

FaultInjector::FaultInjector(Runtime &rt, FaultPlan plan)
    : rt_(rt), plan_(std::move(plan)), rng_(plan_.seed)
{
    OS_CHECK(plan_.drop >= 0 && plan_.drop <= 1,
             "FaultPlan: drop ", plan_.drop, " outside [0,1]");
    OS_CHECK(plan_.duplicate >= 0 && plan_.duplicate <= 1,
             "FaultPlan: duplicate ", plan_.duplicate,
             " outside [0,1]");
    OS_CHECK(plan_.delayJitter >= 0,
             "FaultPlan: negative delayJitter");
    for (const auto &lf : plan_.links) {
        OS_CHECK(lf.drop >= 0 && lf.drop <= 1,
                 "FaultPlan: link drop outside [0,1]");
        linkDrop_[{lf.from, lf.to}] = lf.drop;
    }
    for (const auto &pc : plan_.partitions) {
        OS_CHECK(pc.healAt >= pc.splitAt,
                 "FaultPlan: partition heals before it splits");
    }
}

FaultInjector::~FaultInjector()
{
    disarm();
    for (EventId ev : cycleEvents_)
        rt_.cancel(ev); // cancel-after-fire is a no-op
}

void
FaultInjector::arm()
{
    if (armed_)
        return;
    armed_ = true;
    rt_.setFaultInjector(this);

    // Partition cycles: each uses its own partition id so overlapping
    // cycles stay distinguishable; heal merges the group back into
    // the default partition.
    for (std::size_t i = 0; i < plan_.partitions.size(); i++) {
        const auto &pc = plan_.partitions[i];
        int pid = static_cast<int>(i) + 1;
        cycleEvents_.push_back(
            rt_.scheduleAt(pc.splitAt, [this, i, pid]() {
                for (NodeId n : plan_.partitions[i].groupA)
                    rt_.setPartition(n, pid);
            }));
        cycleEvents_.push_back(rt_.scheduleAt(
            pc.healAt, [this, pid]() { rt_.heal(0, pid); }));
    }
}

void
FaultInjector::disarm()
{
    if (!armed_)
        return;
    armed_ = false;
    rt_.setFaultInjector(nullptr);
}

void
FaultInjector::mix(std::uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        trace_ ^= (v >> (8 * i)) & 0xff;
        trace_ *= 1099511628211ull;
    }
}

FaultVerdict
FaultInjector::onSend(NodeId from, NodeId to, std::size_t bytes)
{
    inspected_++;
    FaultVerdict v;
    FaultMetricIds &fm = faultMetrics();
    fm.reg->inc(fm.inspected);

    double drop = plan_.drop;
    if (!linkDrop_.empty()) {
        auto it = linkDrop_.find({from, to});
        if (it != linkDrop_.end())
            drop = it->second;
    }
    if (drop > 0 && rng_.chance(drop)) {
        v.drop = true;
        dropped_++;
        fm.reg->inc(fm.dropped);
    } else {
        if (plan_.duplicate > 0 && rng_.chance(plan_.duplicate)) {
            v.duplicate = true;
            duplicated_++;
            fm.reg->inc(fm.duplicated);
        }
        if (plan_.delayJitter > 0) {
            v.extraDelay = rng_.uniform(0.0, plan_.delayJitter);
            delayed_++;
            fm.reg->inc(fm.delayed);
        }
    }

    mix(from);
    mix(to);
    mix(bytes);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v.extraDelay));
    __builtin_memcpy(&bits, &v.extraDelay, sizeof(bits));
    mix((v.drop ? 1u : 0u) | (v.duplicate ? 2u : 0u));
    mix(bits);
    return v;
}

} // namespace oceanstore
