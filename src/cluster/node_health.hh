/**
 * @file
 * Latency health scores and straggler quarantine for the cluster.
 *
 * Gray failures — nodes that answer but answer slowly — evade crash
 * detection and circuit breakers keyed on *failures*: a degraded node
 * completes every invocation, just at 4x the latency, and keeps
 * absorbing its share of traffic while dragging the fleet tail. The
 * tracker keeps one latency EWMA per node (fed with node-side
 * end-to-end seconds as completions reach the coordinator) and
 * compares each node against the fleet *median* EWMA — a robust
 * baseline that a minority of stragglers cannot shift much.
 *
 * Quarantine FSM, evaluated at cluster barriers (knobs are the
 * network plan's quarantine_*):
 *
 *   Healthy ──(ewma > latency_factor * median, ≥ min_samples)──▶
 *   Quarantined ──(drain_seconds elapse)──▶ Probation
 *   Probation ──(probe_count consecutive probes land healthy)──▶
 *   Healthy   /  ──(any probe ≥ readmit_factor * median)──▶ Quarantined
 *
 * Quarantined nodes get no primary or hedge dispatches. Probation
 * nodes get a trickle: the router sends at most one in-flight probe
 * at a time, and the node must string together probe_count healthy
 * completions to be readmitted. Readmission resets the node's sample
 * count so the stale degraded-era EWMA has to re-earn trust.
 *
 * Everything here is a pure function of the completion stream the
 * coordinator feeds in node-index order, so quarantine decisions are
 * bit-identical at any shard count.
 */

#ifndef RC_CLUSTER_NODE_HEALTH_HH_
#define RC_CLUSTER_NODE_HEALTH_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/network_plan.hh"
#include "sim/time.hh"

namespace rc::cluster {

/** Latency-quarantine tracker for one cluster's nodes. */
class NodeHealthTracker
{
  public:
    enum class State : std::uint8_t
    {
        Healthy = 0,
        Quarantined = 1,
        Probation = 2,
    };

    /** One FSM transition, for the obs event stream. */
    struct Transition
    {
        sim::Tick at = 0;
        std::uint16_t node = 0;
        State from = State::Healthy;
        State to = State::Healthy;
    };

    /** Reads the quarantine_* knobs of @p plan (a copy is kept); with
     *  quarantine off every node stays Healthy. */
    NodeHealthTracker(const fault::NetworkPlan& plan, std::size_t nodes);

    /** Feed one completion's node-side end-to-end latency. */
    void recordLatency(std::size_t node, double seconds, sim::Tick at);

    /**
     * Re-evaluate every node against the fleet median at a barrier.
     * Appends FSM transitions to the log (drain with
     * drainTransitions()).
     */
    void refresh(sim::Tick now);

    /** True when the node must receive no primary/hedge dispatches. */
    bool quarantined(std::size_t node) const
    {
        return _state[node] == State::Quarantined;
    }

    State state(std::size_t node) const { return _state[node]; }

    /**
     * True when the router should send this arrival to @p node as a
     * readmission probe (Probation, no probe outstanding). The caller
     * commits with noteProbeSent().
     */
    bool wantsProbe(std::size_t node) const
    {
        return _state[node] == State::Probation && !_probeOutstanding[node];
    }

    void noteProbeSent(std::size_t node)
    {
        _probeOutstanding[node] = true;
        ++_probes;
    }

    /** The in-flight probe died without completing (cancel, crash,
     *  shed): clear the slot so the next arrival can probe again. */
    void noteProbeAborted(std::size_t node)
    {
        _probeOutstanding[node] = 0;
    }

    /** Move out transitions logged since the last drain. */
    std::vector<Transition> drainTransitions()
    {
        return std::move(_transitions);
    }

    /** Fleet median EWMA over judged nodes (0 until min_samples). */
    double fleetMedian() const { return _fleetMedian; }

    double ewma(std::size_t node) const { return _ewma[node]; }

    std::uint64_t quarantines() const { return _quarantines; }
    std::uint64_t probes() const { return _probes; }
    std::uint64_t readmits() const { return _readmits; }

  private:
    void transition(std::size_t node, State to, sim::Tick now);

    fault::NetworkPlan _plan;
    /** Time in Quarantined before probing starts. */
    sim::Tick _drain;
    std::vector<State> _state;
    std::vector<double> _ewma;
    std::vector<std::uint32_t> _samples;
    std::vector<sim::Tick> _quarantinedAt;
    std::vector<std::uint32_t> _probeStreak;
    /** Probe in flight (one at a time per probation node). */
    std::vector<std::uint8_t> _probeOutstanding;
    std::vector<double> _medianScratch;
    double _fleetMedian = 0.0;
    std::uint64_t _quarantines = 0;
    std::uint64_t _probes = 0;
    std::uint64_t _readmits = 0;
    std::vector<Transition> _transitions;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_NODE_HEALTH_HH_
