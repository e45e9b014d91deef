#include "runtime/churn.h"

#include "util/check.h"

namespace oceanstore {

namespace {

/** A uniformly random @p fraction of @p nodes, in sampling order. */
std::vector<NodeId>
sampleFraction(const std::vector<NodeId> &nodes, double fraction,
               Rng &rng)
{
    OS_CHECK(fraction >= 0.0 && fraction <= 1.0,
             "massFailure: fraction ", fraction, " outside [0,1]");
    std::size_t k = static_cast<std::size_t>(
        fraction * static_cast<double>(nodes.size()) + 0.5);
    std::vector<NodeId> picked;
    picked.reserve(k);
    for (auto i : rng.sampleIndices(nodes.size(), k))
        picked.push_back(nodes[i]);
    return picked;
}

} // namespace

ChurnInjector::ChurnInjector(Runtime &rt, ChurnConfig cfg)
    : rt_(rt), cfg_(cfg), rng_(cfg.seed)
{
    OS_CHECK(cfg.meanUptime > 0 && cfg.meanDowntime > 0,
             "ChurnInjector: non-positive mean up/down time");
}

void
ChurnInjector::start(const std::vector<NodeId> &nodes)
{
    running_ = true;
    for (NodeId n : nodes)
        scheduleTransition(n);
}

void
ChurnInjector::scheduleTransition(NodeId n)
{
    double hold = rt_.isUp(n) ? rng_.exponential(cfg_.meanUptime)
                               : rng_.exponential(cfg_.meanDowntime);
    transitions_[n] = rt_.schedule(hold, [this, n]() {
        if (!running_)
            return;
        if (rt_.isUp(n)) {
            if (lifecycle)
                lifecycle->shutdown(n);
            else
                rt_.setDown(n);
            if (onCrash)
                onCrash(n);
        } else {
            if (lifecycle)
                lifecycle->restart(n);
            else
                rt_.setUp(n);
            if (onRecover)
                onRecover(n);
        }
        scheduleTransition(n);
    });
}

std::vector<NodeId>
ChurnInjector::massFailure(const std::vector<NodeId> &nodes,
                           double fraction)
{
    std::vector<NodeId> downed = sampleFraction(nodes, fraction, rng_);
    for (NodeId n : downed) {
        // The lifecycle, when set, keeps storage teardown symmetric.
        if (lifecycle)
            lifecycle->shutdown(n);
        else
            rt_.setDown(n);
    }
    if (onCrash) {
        for (NodeId n : downed)
            onCrash(n);
    }
    return downed;
}

std::vector<NodeId>
ChurnInjector::massRecover(const std::vector<NodeId> &nodes)
{
    std::vector<NodeId> recovered;
    for (NodeId n : nodes) {
        if (rt_.isUp(n))
            continue;
        if (lifecycle)
            lifecycle->restart(n);
        else
            rt_.setUp(n);
        recovered.push_back(n);
        if (onRecover)
            onRecover(n);
    }
    return recovered;
}

std::vector<NodeId>
ChurnInjector::massFailure(Runtime &rt, const std::vector<NodeId> &nodes,
                           double fraction, Rng &rng)
{
    std::vector<NodeId> downed = sampleFraction(nodes, fraction, rng);
    for (NodeId n : downed)
        rt.setDown(n);
    return downed;
}

} // namespace oceanstore
