#include "sim/link_model.h"

#include <cmath>

#include "util/check.h"

namespace oceanstore {

LinkModel::LinkModel(const LinkConfig &cfg) : cfg_(cfg), rng_(cfg.seed) {}

NodeId
LinkModel::addNode(SimNode *node, double x, double y)
{
    NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(node);
    pos_.emplace_back(x, y);
    up_.push_back(true);
    partition_.push_back(0);
    return id;
}

void
LinkModel::removeNode(NodeId id)
{
    if (id < nodes_.size())
        nodes_[id] = nullptr;
}

double
LinkModel::distance(NodeId a, NodeId b) const
{
    OS_DCHECK(a < pos_.size() && b < pos_.size(),
              "LinkModel::distance: bad node id");
    double dx = pos_[a].first - pos_[b].first;
    double dy = pos_[a].second - pos_[b].second;
    return std::sqrt(dx * dx + dy * dy);
}

double
LinkModel::latency(NodeId a, NodeId b) const
{
    if (a == b)
        return 0.0;
    return cfg_.baseLatency + cfg_.latencyPerUnit * distance(a, b);
}

void
LinkModel::setDown(NodeId n)
{
    OS_CHECK(n < up_.size(), "LinkModel::setDown: bad node id ", n);
    up_[n] = false;
}

void
LinkModel::setUp(NodeId n)
{
    OS_CHECK(n < up_.size(), "LinkModel::setUp: bad node id ", n);
    up_[n] = true;
}

void
LinkModel::setPartition(NodeId n, int partition)
{
    OS_CHECK(n < partition_.size(),
             "LinkModel::setPartition: bad node id ", n);
    partition_[n] = partition;
}

void
LinkModel::healPartitions()
{
    for (auto &p : partition_)
        p = 0;
}

void
LinkModel::heal(int a, int b)
{
    for (auto &p : partition_)
        if (p == b)
            p = a;
}

void
LinkModel::account(const std::string &type, std::size_t bytes,
                   std::size_t legs)
{
    totalBytes_ += bytes * legs;
    totalMessages_ += legs;
    byType_.bump(type, bytes * legs);
}

double
LinkModel::drawLatency(NodeId from, NodeId to, std::size_t bytes)
{
    double lat = latency(from, to);
    if (cfg_.jitter > 0)
        lat *= 1.0 + rng_.uniform(-cfg_.jitter, cfg_.jitter);
    if (cfg_.bandwidth > 0)
        lat += static_cast<double>(bytes) / cfg_.bandwidth;

    // Local delivery still takes a scheduling step to avoid unbounded
    // recursion in protocols that self-send.
    if (lat <= 0)
        lat = 1e-6;
    return lat;
}

LinkModel::Leg
LinkModel::route(NodeId from, NodeId to, std::size_t bytes)
{
    Leg leg;
    // A crashed sender cannot transmit.
    if (!up_[from] || (cfg_.dropRate > 0 && rng_.chance(cfg_.dropRate))) {
        leg.drop = true;
        return leg;
    }
    leg.latency = drawLatency(from, to, bytes);
    if (fault_) {
        FaultVerdict v = fault_->onSend(from, to, bytes);
        if (v.drop) {
            leg.drop = true;
            return leg;
        }
        leg.latency += v.extraDelay;
        leg.duplicate = v.duplicate;
    }
    if (leg.duplicate)
        leg.dupLatency = leg.latency + drawLatency(from, to, bytes);
    return leg;
}

SimNode *
LinkModel::arrival(NodeId src, NodeId to) const
{
    if (to >= nodes_.size() || !up_[to] ||
        partition_[src] != partition_[to])
        return nullptr;
    return nodes_[to];
}

void
LinkModel::resetCounters()
{
    totalBytes_ = 0;
    totalMessages_ = 0;
    byType_.clear();
}

} // namespace oceanstore
