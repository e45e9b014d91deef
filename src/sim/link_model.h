/**
 * @file
 * The link and fault model both Runtime backends share: every
 * decision about a message that does not depend on how it is carried
 * (registry, geometry, liveness, partitions, drops, jitter, faults,
 * accounting).  The sim's Network delivers the decided legs as
 * simulator events; ThreadedRuntime queues them on per-link FIFO
 * queues against the wall clock.  Not thread-safe: ThreadedRuntime
 * holds its own lock around every call.
 */

#ifndef OCEANSTORE_SIM_LINK_MODEL_H
#define OCEANSTORE_SIM_LINK_MODEL_H

#include <string>
#include <utility>
#include <vector>

#include "sim/message.h"
#include "util/random.h"
#include "util/stats.h"

namespace oceanstore {

class SimNode;

/** Link tunables.  The member defaults are the sim's wide-area
 *  model (NetworkConfig); loopbackLinkDefaults below are the
 *  threaded backend's (ThreadedConfig). */
struct LinkConfig
{
    /** Fixed per-message one-way latency floor, seconds. */
    double baseLatency = 0.005;
    /** Extra latency per unit of geometric distance, seconds. */
    double latencyPerUnit = 0.100;
    /** Link bandwidth in bytes/second (0 = infinite). */
    double bandwidth = 10e6;
    /** Fractional latency jitter (uniform +/-). */
    double jitter = 0.05;
    /** Probability an individual message is silently dropped. */
    double dropRate = 0.0;
    /** Seed for jitter/drop randomness. */
    std::uint64_t seed = 0x6e657477u;
};

/** Link defaults of the threaded backend's loopback transport
 *  (wall seconds, no jitter, infinite bandwidth). */
inline constexpr LinkConfig loopbackLinkDefaults{
    .baseLatency = 0.0003,
    .latencyPerUnit = 0.002,
    .bandwidth = 0.0,
    .jitter = 0.0,
    .dropRate = 0.0,
    .seed = 0x7468726eull,
};

/** A fault hook's decision about one transmission. */
struct FaultVerdict
{
    bool drop = false;
    bool duplicate = false;
    double extraDelay = 0.0;
};

/** Consulted for every transmission whose sender is alive
 *  (implemented by FaultInjector, runtime/fault.h). */
class FaultHook
{
  public:
    virtual ~FaultHook() = default;
    virtual FaultVerdict onSend(NodeId from, NodeId to,
                                std::size_t bytes) = 0;
};

/** Endpoint registry, geometry, liveness, route decisions, counters. */
class LinkModel
{
  public:
    /** The decision for one (from, to) leg of a transmission. */
    struct Leg
    {
        bool drop = false;
        /** Delivery delay from now, seconds (>= 1 us). */
        double latency = 0.0;
        bool duplicate = false;
        /** The duplicate's delivery delay from now (> latency). */
        double dupLatency = 0.0;
    };

    explicit LinkModel(const LinkConfig &cfg);

    /**
     * Register an endpoint at geometric position (x, y) in the unit
     * square; ids are dense and stable.  The caller retains ownership
     * of @p node.
     */
    NodeId addNode(SimNode *node, double x, double y);

    /**
     * Detach @p id's endpoint: the slot stays allocated but arrivals
     * for it are dropped like arrivals at a downed node.  Call from
     * the destructor of any endpoint that can die before the
     * transport — in-flight deliveries hold the id, not the pointer.
     */
    void removeNode(NodeId id);

    /** Number of registered endpoints. */
    std::size_t size() const { return nodes_.size(); }

    /** True when @p n names a registered endpoint slot. */
    bool known(NodeId n) const { return n < nodes_.size(); }

    /** One-way latency between two nodes, without jitter or bandwidth. */
    double latency(NodeId a, NodeId b) const;

    /** Euclidean distance between two node positions. */
    double distance(NodeId a, NodeId b) const;

    double xOf(NodeId n) const { return pos_[n].first; }
    double yOf(NodeId n) const { return pos_[n].second; }

    /** Mark a node crashed: it neither sends nor receives. */
    void setDown(NodeId n);
    void setUp(NodeId n);
    bool isUp(NodeId n) const { return up_[n]; }

    /** Messages are only delivered within one partition (default 0). */
    void setPartition(NodeId n, int partition);

    /** Everyone back to partition 0. */
    void healPartitions();

    /** Move every node in partition @p b into partition @p a. */
    void heal(int a, int b);

    /** Set the global message drop probability. */
    void setDropRate(double p) { cfg_.dropRate = p; }

    /** Attach (or with nullptr detach) the fault hook.  When none is
     *  attached a route pays exactly one null check for it. */
    void setFaultInjector(FaultHook *f) { fault_ = f; }

    /**
     * Charge @p legs link crossings of a @p bytes-byte message of
     * kind @p type.  Called at send time, before any drop decision:
     * the sender cannot know the message will be lost.
     */
    void account(const std::string &type, std::size_t bytes,
                 std::size_t legs = 1);

    /**
     * Decide one leg.  Draw order is fixed — global drop, jitter,
     * fault verdict, duplicate latency — so a seed replays the same
     * decisions.  A crashed sender drops without consuming the rng.
     */
    Leg route(NodeId from, NodeId to, std::size_t bytes);

    /**
     * The endpoint a message from @p src may be delivered to at
     * @p to right now, or nullptr when it is detached, down, or in
     * another partition.
     */
    SimNode *arrival(NodeId src, NodeId to) const;

    /** Total payload+header bytes / messages accepted so far. */
    std::uint64_t totalBytes() const { return totalBytes_; }
    std::uint64_t totalMessages() const { return totalMessages_; }

    /** Per-message-type byte counters, for protocol cost breakdowns. */
    const Counters &byteCounters() const { return byType_; }

    /** Reset the byte/message counters (not node state). */
    void resetCounters();

  private:
    /** Jitter/bandwidth-adjusted latency; consumes rng on jitter. */
    double drawLatency(NodeId from, NodeId to, std::size_t bytes);

    LinkConfig cfg_;
    Rng rng_;
    FaultHook *fault_ = nullptr;
    std::vector<SimNode *> nodes_;
    std::vector<std::pair<double, double>> pos_;
    std::vector<bool> up_;
    std::vector<int> partition_;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalMessages_ = 0;
    Counters byType_;
};

} // namespace oceanstore

#endif // OCEANSTORE_SIM_LINK_MODEL_H
