/**
 * @file
 * Ticketed-request tracking for the cluster coordinator: hedged
 * dispatch, first-winner-commits resolution, readmission probes and
 * client retry feedback.
 *
 * While ticketing is armed (the network or the domain plan is
 * active), every request the coordinator dispatches opens a *watch*
 * under a fresh primary ticket. A watch holds two attempts, the
 * primary and an optional hedge; nodes report each attempt's
 * admission and terminal outcome, and settle() folds one barrier's
 * batch of outcomes in (at, ticket, kind) order. The first completion
 * commits the request and the other attempt is cancelled. A request
 * whose every attempt died goes back to the client, which re-submits
 * it after a backoff when the domain plan arms retry feedback.
 *
 * The tracker touches no node and no link. It returns what the
 * coordinator must carry out (hedges to route and send, loser cancels
 * to deliver, retries to dispatch), so the protocol is testable with
 * scripted outcome sequences alone. Every decision is a pure function
 * of the calls it receives, so results stay byte-identical at any
 * shard count.
 */

#ifndef RC_CLUSTER_REQUEST_TRACKER_HH_
#define RC_CLUSTER_REQUEST_TRACKER_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/node_health.hh"
#include "fault/fault_plan.hh"
#include "obs/observer.hh"
#include "stats/quantile_sketch.hh"

namespace rc::cluster {

/** The coordinator's ledger of outstanding ticketed requests. */
class RequestTracker
{
  public:
    /** One ticket outcome and the node that reported it. */
    struct TaggedOutcome
    {
        platform::TicketOutcome outcome;
        std::uint32_t node = 0;
    };

    /** A loser cancel to deliver to @p node at the barrier. */
    struct Cancel
    {
        std::uint32_t node = 0;
        std::uint64_t ticket = 0;
    };

    /** A request past its hedge budget. The coordinator picks a node
     *  other than @p primaryNode and commits with launchHedge(). */
    struct DueHedge
    {
        std::uint64_t primaryTicket = 0;
        workload::FunctionId function = workload::kInvalidFunction;
        std::uint32_t primaryNode = 0;
        std::uint64_t rootSpan = 0; //!< the hedge's origin span
    };

    /** A client re-submission, due when its backoff expires. */
    struct Retry
    {
        sim::Tick at = 0;
        std::uint64_t seq = 0; //!< enqueue order (tie-break)
        workload::FunctionId function = workload::kInvalidFunction;
        std::uint32_t attempt = 0; //!< feedback generation (>= 1)

        friend bool operator>(const Retry& a, const Retry& b)
        {
            return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
        }
    };

    /**
     * @param plan       Hedge knobs (network) and retry feedback
     *                   (domain); copied.
     * @param functions  Catalog size (one hedge-budget sketch each).
     * @param health     Fed every completion and every probe slot
     *                   taken or released; must outlive the tracker.
     */
    RequestTracker(const fault::FaultPlan& plan, std::size_t functions,
                   NodeHealthTracker& health, obs::Observer* obs);

    /** Completions at or after @p at also feed the recovery-window
     *  sketch (the first correlated strike). */
    void setRecoveryFrom(sim::Tick at) { _recoveryFrom = at; }

    /** True when no watch is open. */
    bool idle() const { return _watches.empty(); }

    /**
     * Open a watch for a request sent to @p node at @p at and return
     * its primary ticket. A @p probe takes the node's readmission-probe
     * slot, and is never hedged nor retried.
     */
    std::uint64_t open(workload::FunctionId function, sim::Tick at,
                       std::uint32_t node, bool probe,
                       std::uint32_t feedbackAttempt);

    /** Earliest tick the tracker needs a barrier at: the next
     *  feedback retry, or the earliest hedge deadline but no earlier
     *  than @p floor; kNever when neither exists. */
    sim::Tick nextActionAt(sim::Tick floor) const;

    /** Watches whose hedge deadline is at or before @p now, in
     *  primary-ticket order; valid until the next call. */
    const std::vector<DueHedge>& dueHedges(sim::Tick now);

    /** Launch the hedge of @p primaryTicket on @p node; returns the
     *  hedge's ticket. */
    std::uint64_t launchHedge(std::uint64_t primaryTicket,
                              std::uint32_t node, sim::Tick now,
                              ClusterResult& result);

    /** Failover re-routed the attempt holding @p ticket to @p node; a
     *  probe gives its crashed node's slot back. */
    void moved(std::uint64_t ticket, std::uint32_t node);

    /**
     * Sort @p batch into (at, ticket, kind) order and settle it; returns
     * the loser cancels in issue order, valid until the next call.
     */
    const std::vector<Cancel>& settle(std::vector<TaggedOutcome>& batch,
                                      ClusterResult& result);

    /** Remove and return the next retry due before @p end, in
     *  (at, seq) order. */
    std::optional<Retry> popRetry(sim::Tick end);

    /** Write the request-level latency quantiles into @p result. */
    void report(ClusterResult& result) const;

  private:
    static constexpr std::size_t kPrimary = 0;
    static constexpr std::size_t kHedge = 1;

    /** One dispatch of a request. */
    struct Attempt
    {
        std::uint64_t ticket = 0; //!< 0 = never launched (hedge)
        std::uint32_t node = 0;
        /** kAdmitted seen: a cancel can only reach a node that holds
         *  the ticket, so a loser's cancel waits for its admission. */
        bool admitted = false;
        bool done = false; //!< a terminal outcome arrived

        bool over() const { return ticket == 0 || done; }
    };

    /** One ticketed request: its attempts and their resolution. */
    struct Watch
    {
        workload::FunctionId function = workload::kInvalidFunction;
        sim::Tick sentAt = 0; //!< request e2e and hedge-budget base
        std::uint64_t rootSpan = 0; //!< primary root span (spans on)
        std::array<Attempt, 2> attempts; //!< kPrimary, kHedge
        bool resolved = false; //!< a winner committed
        bool probe = false;
        /** Node whose probe slot this request holds, if any. */
        std::optional<std::uint32_t> probeSlot;
        /** Client retry-feedback generation (0 = original request). */
        std::uint32_t feedbackAttempt = 0;

        /** Every launched attempt is terminal. */
        bool settled() const
        {
            return attempts[kPrimary].over() && attempts[kHedge].over();
        }
    };

    /** How a hedge attempt ended: its result counter and obs feed. */
    struct HedgeFate
    {
        std::uint64_t ClusterResult::*count;
        obs::Counter counter;
        obs::EventType event;
    };
    static constexpr HedgeFate kWon{&ClusterResult::hedgesWon,
                                    obs::Counter::HedgesWon,
                                    obs::EventType::HedgeWon};
    static constexpr HedgeFate kCancelled{&ClusterResult::hedgesCancelled,
                                          obs::Counter::HedgesCancelled,
                                          obs::EventType::HedgeCancelled};
    static constexpr HedgeFate kLost{&ClusterResult::hedgesLost,
                                     obs::Counter::HedgesLost,
                                     obs::EventType::HedgeLost};

    using WatchMap = std::map<std::uint64_t, Watch>;

    WatchMap::iterator find(std::uint64_t ticket);
    sim::Tick hedgeDeadline(const Watch& watch) const;
    void onAdmitted(Watch& watch, std::size_t side,
                    const TaggedOutcome& tagged);
    void onCompleted(Watch& watch, std::size_t side,
                     const TaggedOutcome& tagged, ClusterResult& result);
    /** Mark one attempt terminal; a hedge's first terminal outcome is
     *  booked as @p fate, reported against @p node. */
    void retire(Watch& watch, std::size_t side, sim::Tick at,
                std::uint32_t node, const HedgeFate& fate,
                ClusterResult& result);
    void releaseProbe(Watch& watch);
    void scheduleRetry(const Watch& watch, sim::Tick at);

    const fault::FaultPlan _plan;
    const bool _hedging;
    const bool _feedback;
    NodeHealthTracker& _health;
    obs::Observer* _obs;

    std::uint64_t _nextTicket = 1;
    /** By primary ticket, so scans run in issue order. */
    WatchMap _watches;
    /** Hedge ticket -> primary ticket, for launched hedges. */
    std::unordered_map<std::uint64_t, std::uint64_t> _hedgeOwner;
    std::vector<DueHedge> _due;
    std::vector<Cancel> _cancels;
    std::priority_queue<Retry, std::vector<Retry>, std::greater<>>
        _retries;
    std::uint64_t _retrySeq = 0;

    /** Per-function completed-latency sketches (hedge budgets). */
    std::vector<stats::QuantileSketch> _functionSketches;
    /** Request-level end-to-end latencies (winner per request). */
    stats::QuantileSketch _requestSketch;
    /** Same feed, restricted to completions at or after the first
     *  correlated outage — the storm-window tail the recovery arms
     *  actually differ on (whole-run quantiles are dominated by
     *  outage-phase pain common to every recovery policy). 0.1%
     *  relative error: recovery policies move this tail by fractions
     *  of a percent, inside the default 1% grid's bucket width. */
    stats::QuantileSketch _recoverySketch{0.001};
    sim::Tick _recoveryFrom = kNever;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_REQUEST_TRACKER_HH_
