/**
 * @file
 * Failure injection and churn generation.
 *
 * Drives the failure model the paper's self-maintenance mechanisms
 * respond to: "Servers and devices will connect, disconnect, and fail
 * sporadically" (Section 4.7).  The injector schedules crash/recover
 * cycles with exponential holding times, plus one-shot mass-failure
 * events for the deep-archival experiments.
 */

#ifndef OCEANSTORE_RUNTIME_CHURN_H
#define OCEANSTORE_RUNTIME_CHURN_H

#include <functional>
#include <map>
#include <vector>

#include "runtime/runtime.h"
#include "util/random.h"

namespace oceanstore {

/** Configuration for continuous churn. */
struct ChurnConfig
{
    double meanUptime = 600.0;   //!< Mean seconds a node stays up.
    double meanDowntime = 60.0;  //!< Mean seconds a node stays down.
    std::uint64_t seed = 0x43485255u;
};

/**
 * Node crash/restart lifecycle (DESIGN.md section 14).
 *
 * Implemented by the system owner (core::Universe) so failure
 * injectors tear a node down and bring it back through ONE symmetric
 * path — network link state, durable storage teardown (disk-fault
 * application, backend destruction) and recovery replay all happen
 * together, never leaving a stale storage handle behind a node the
 * network already considers dead.  shutdown() must leave the node
 * down (Runtime::setDown or equivalent); restart() must bring it up.
 */
class NodeLifecycle
{
  public:
    virtual ~NodeLifecycle() = default;

    /** Tear @p n down: network down + storage crash. */
    virtual void shutdown(NodeId n) = 0;

    /** Bring @p n back: storage recovery + network up. */
    virtual void restart(NodeId n) = 0;
};

/**
 * Continuous churn process over a set of nodes.
 *
 * Each managed node alternates up/down with exponential holding
 * times.  Optional callbacks notify protocol layers (e.g. the Plaxton
 * mesh repair machinery) of transitions.
 */
class ChurnInjector
{
  public:
    ChurnInjector(Runtime &rt, ChurnConfig cfg = {});

    /** Begin churning @p nodes.  Call at most once. */
    void start(const std::vector<NodeId> &nodes);

    /** Stop churning: cancel every armed transition so no closure
     *  can fire after the injector's owner tears it down. */
    void
    stop()
    {
        running_ = false;
        for (const auto &[n, ev] : transitions_) {
            (void)n;
            rt_.cancel(ev);
        }
        transitions_.clear();
    }

    /** Invoked (if set) when a node crashes. */
    std::function<void(NodeId)> onCrash;

    /** Invoked (if set) when a node recovers. */
    std::function<void(NodeId)> onRecover;

    /**
     * When set, every transition (scheduled churn and the mass
     * helpers) routes through this lifecycle instead of raw
     * Runtime::setDown/setUp, so storage teardown and recovery stay
     * symmetric with link state.  onCrash/onRecover still fire after
     * the lifecycle call, exactly as before.
     */
    NodeLifecycle *lifecycle = nullptr;

    /** Crash a uniformly random @p fraction of @p nodes immediately. */
    static std::vector<NodeId>
    massFailure(Runtime &rt, const std::vector<NodeId> &nodes,
                double fraction, Rng &rng);

    /**
     * Crash a uniformly random @p fraction of @p nodes immediately,
     * firing onCrash for each — the callback-carrying counterpart of
     * the static helper, so protocol layers (mesh repair, failure
     * detectors) observe mass-failure events exactly like ordinary
     * churn transitions.  @return the downed nodes.
     */
    std::vector<NodeId> massFailure(const std::vector<NodeId> &nodes,
                                    double fraction);

    /**
     * Symmetric recovery: bring every currently-down node in
     * @p nodes back up, firing onRecover for each.
     * @return the recovered nodes.
     */
    std::vector<NodeId> massRecover(const std::vector<NodeId> &nodes);

  private:
    void scheduleTransition(NodeId n);

    Runtime &rt_;
    ChurnConfig cfg_;
    Rng rng_;
    bool running_ = false;
    /** Node -> its armed transition event (the cancellation handles
     *  for the self-rescheduling closures; ordered for determinism). */
    std::map<NodeId, EventId> transitions_;
};

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_CHURN_H
