/**
 * @file
 * The gray network between the cluster coordinator and its nodes
 * (fault::NetworkPlan, DESIGN.md §13).
 *
 * Every ticketed invoke the coordinator sends crosses a link that may
 * delay it (lognormal jitter with a heavy-tail mixture) or drop and
 * retransmit it; a message that lands past the current window is
 * parked until the window that contains it. The module also replays
 * the pre-drawn degraded-node windows and scheduled partitions. All
 * draws come from the coordinator's dedicated Rng streams in send
 * order, so delivery schedules are identical at any shard count.
 */

#ifndef RC_CLUSTER_GRAY_NETWORK_HH_
#define RC_CLUSTER_GRAY_NETWORK_HH_

#include <cstdint>
#include <optional>
#include <queue>
#include <tuple>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/summary_table.hh"
#include "fault/network_plan.hh"

namespace rc::cluster {

/** Link sampling, parked deliveries, degraded windows, partitions. */
class GrayNetwork
{
  public:
    /**
     * Pre-draw the degraded windows and partitions of @p nodes nodes up
     * to @p horizon; an inactive @p plan draws nothing and delivers
     * every message instantly.
     */
    GrayNetwork(const fault::NetworkPlan& plan, std::uint64_t seed,
                std::size_t nodes, sim::Tick horizon, obs::Observer* obs);

    /** Degraded windows in (start, node) order. */
    const std::vector<fault::DegradedWindow>& degradedWindows() const
    {
        return _degraded;
    }

    /**
     * Send one invoke, stamped with its send tick and send sequence,
     * across the link: returns it retimed to its delivery tick when
     * that lands before @p windowEnd, and parks it otherwise.
     */
    std::optional<RoutedInput> send(RoutedInput invoke, sim::Tick windowEnd);

    /** Delivery tick of the next parked invoke; kNever when none. */
    sim::Tick nextDeliveryAt() const
    {
        return _parked.empty() ? kNever : _parked.top().input.tick;
    }

    /** Remove and return the next parked invoke, in (delivery tick,
     *  send sequence) order. */
    RoutedInput popDelivery();

    /** The next partition start, or the first barrier (on a grid of
     *  @p pitch) at or after a live partition's end. */
    sim::Tick nextPartitionFlipAt(sim::Tick pitch) const;

    /** Lift partitions ended by @p windowStart and start those due
     *  before @p windowEnd, holding severed nodes in @p table. */
    void applyPartitions(sim::Tick windowStart, sim::Tick windowEnd,
                         SummaryTable& table, ClusterResult& result);

    /** Emit NodeDegraded events for windows starting before @p end. */
    void emitDegradedEvents(sim::Tick end);

    /** Write the delay and drop counters into @p result. */
    void report(ClusterResult& result) const;

  private:
    /** Heap order: the later (delivery tick, send sequence) sinks. */
    struct LaterDelivery
    {
        bool operator()(const RoutedInput& a, const RoutedInput& b) const
        {
            return std::tie(a.input.tick, a.input.seq) >
                   std::tie(b.input.tick, b.input.seq);
        }
    };

    obs::Observer* _obs;
    fault::NetworkSampler _sampler;
    std::uint64_t _msgsDelayed = 0;
    std::uint64_t _msgsDropped = 0;
    std::vector<fault::DegradedWindow> _degraded;
    std::size_t _degradedEmitted = 0;
    /** Partitions never overlap, so they start and lift in schedule
     *  order: [_lifted, _started) are live. */
    std::vector<fault::PartitionEvent> _partitions;
    std::size_t _started = 0;
    std::size_t _lifted = 0;
    std::priority_queue<RoutedInput, std::vector<RoutedInput>,
                        LaterDelivery>
        _parked;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_GRAY_NETWORK_HH_
