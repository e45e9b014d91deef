/**
 * @file
 * Simulated wide-area network.
 *
 * Models point-to-point IP delivery between simulated nodes as
 * simulator events.  Every link decision — latency from geometric
 * node positions plus jitter and bandwidth, drops, faults, node
 * failures, partitions and byte accounting — comes from the LinkModel
 * (sim/link_model.h) the threaded backend shares.  The OceanStore
 * routing layer (Section 4.3) runs *on top of* this, exactly as the
 * paper's layer runs on top of IP.
 *
 * Hot path (DESIGN.md section 9): in-flight messages live in a pooled
 * store — the scheduled delivery closure captures only (pool index,
 * destination), which fits the simulator's inline EventFn buffer, so
 * a send costs no closure heap allocation.  multicast() ships one
 * payload to many destinations through a single reference-counted
 * pool slot instead of one deep Message copy per receiver.
 */

#ifndef OCEANSTORE_SIM_NETWORK_H
#define OCEANSTORE_SIM_NETWORK_H

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/link_model.h"
#include "sim/message.h"
#include "sim/simulator.h"
#include "util/mutex.h"

namespace oceanstore {

/** Interface every simulated protocol endpoint implements. */
class SimNode
{
  public:
    virtual ~SimNode() = default;

    /**
     * Deliver a message sent to this node.  The reference is only
     * valid for the duration of the call (multicast receivers share
     * one pooled payload); copy whatever must outlive it.
     */
    virtual void handleMessage(const Message &msg) = 0;
};

/** Tunables for the network model (the sim's link defaults). */
using NetworkConfig = LinkConfig;

/**
 * The simulated network: the shared LinkModel (registry, geometry,
 * liveness, partitions, route decisions, accounting) whose decided
 * legs are delivered as simulator events.
 */
class Network : public LinkModel
{
  public:
    Network(Simulator &sim, NetworkConfig cfg = {});

    /**
     * Send @p msg from @p from to @p to.  Delivery is scheduled after
     * the link latency; bytes are counted even if the destination is
     * down on arrival (the sender cannot know).  Messages to downed or
     * partitioned-away destinations are dropped at arrival time.
     */
    void send(NodeId from, NodeId to, Message msg);

    /**
     * Send one message from @p from to every node in @p tos — the
     * batched fan-out path for protocol broadcast/tree-push.
     * Semantically identical to a send() per destination (per-link
     * byte accounting, per-destination jitter/drop/liveness), but the
     * payload is stored once and shared by reference across all
     * deliveries instead of deep-copied per receiver.
     */
    void multicast(NodeId from, const std::vector<NodeId> &tos,
                   Message msg);

    /** In-flight messages (scheduled, not yet delivered or dropped). */
    std::size_t
    inFlight() const OS_EXCLUDES(mu_)
    {
        MutexLock lock(mu_);
        return inFlight_;
    }

    /** The simulator driving this network. */
    Simulator &sim() { return sim_; }

  private:
    /** One pooled in-flight payload, shared by @c refs deliveries. */
    struct Flight
    {
        Message msg;
        std::uint32_t refs = 0;
    };

    std::uint32_t allocFlight(Message &&msg) OS_EXCLUDES(mu_);
    void releaseFlight(std::uint32_t flight) OS_EXCLUDES(mu_);
    /** Add one delivery reference to a pooled flight. */
    void pinFlight(std::uint32_t flight) OS_EXCLUDES(mu_);
    /** The pooled payload of @p flight.  The reference stays valid
     *  across reentrant sends (deque slots are stable) and is only
     *  mutated once the last reference is released. */
    const Message &flightMsg(std::uint32_t flight) const
        OS_EXCLUDES(mu_);
    void scheduleDelivery(std::uint32_t flight, NodeId to, double lat);
    void deliver(std::uint32_t flight, NodeId to);

    Simulator &sim_;

    /** Guards the pooled flight store (Runtime-seam prep); no-op
     *  until OCEANSTORE_THREADED. */
    mutable Mutex mu_;

    std::size_t inFlight_ OS_GUARDED_BY(mu_) = 0;
    /** deque: references into flights_ stay valid while handlers
     *  reentrantly send (and thus allocate) new flights. */
    std::deque<Flight> flights_ OS_GUARDED_BY(mu_);
    std::vector<std::uint32_t> freeFlights_ OS_GUARDED_BY(mu_);
};

} // namespace oceanstore

#endif // OCEANSTORE_SIM_NETWORK_H
