/**
 * @file
 * The coordinator's routing table: one barrier-time NodeSummary per
 * node, and the only code that writes one (DESIGN.md §12).
 *
 * A row has two owners. The node owns what its report carries. The
 * coordinator owns four *holds*, reasons to keep work off a node that
 * the node cannot see itself: an open circuit breaker, a latency
 * quarantine, a network partition and a recovery episode. A report
 * replaces the node's fields and keeps the holds, so a hold reads
 * what its owner last set whether or not the node reported since.
 * Between reports the scheduler models its own placements in the row,
 * so a burst inside one window spreads over the idle capacity the row
 * shows; a placement stays until the node's next report.
 */

#ifndef RC_CLUSTER_SUMMARY_TABLE_HH_
#define RC_CLUSTER_SUMMARY_TABLE_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "workload/types.hh"

namespace rc::platform {
class Node;
} // namespace rc::platform

namespace rc::cluster {

/**
 * Barrier-time snapshot of one node. POD on purpose: shards capture
 * disjoint nodes, and the coordinator merges them after the round.
 */
struct NodeSummary
{
    /** Node is crashed (no new work). */
    std::uint8_t down = 0;
    /** Coordinator holds (SummaryTable::kTripped, ...). */
    std::uint8_t holds = 0;
    /** In-flight plus queued invocations (load signal). */
    std::uint32_t inFlightPlusQueued = 0;
    /** Pool resident memory (tie-break for least-loaded). */
    double usedMemoryMb = 0.0;
    /** Idle Bare containers available for sharing. */
    std::uint32_t idleBare = 0;
    /** Idle Lang containers per language. */
    std::array<std::uint32_t, workload::kLanguageCount> idleLang{};
    /** Idle User containers, all functions (recovery census-met feed). */
    std::uint32_t idleUser = 0;
    /** Cumulative invoker failures (circuit-breaker feed). */
    std::uint64_t failures = 0;
    /** Cumulative completed invocations (circuit-breaker feed). */
    std::uint64_t successes = 0;
};

/** A node's report: its fields as of now, no holds. */
NodeSummary captureSummary(platform::Node& node);

/** One NodeSummary per node; every write goes through here. */
class SummaryTable
{
  public:
    // Holds, one bit each; a set of holds is their OR.
    /** Circuit breaker open (ShardedCluster::refreshBreakers). */
    static constexpr std::uint8_t kTripped = 1U << 0;
    /** Latency-quarantined straggler (NodeHealthTracker). */
    static constexpr std::uint8_t kQuarantined = 1U << 1;
    /** Inside a scheduled network partition (GrayNetwork). */
    static constexpr std::uint8_t kSevered = 1U << 2;
    /** Recovery FSM state is not Up (RecoveryOrchestrator). */
    static constexpr std::uint8_t kRecovering = 1U << 3;
    /** What the scheduler routes around. */
    static constexpr std::uint8_t kAllHolds =
        kTripped | kQuarantined | kSevered | kRecovering;

    explicit SummaryTable(std::size_t nodes) : _rows(nodes) {}

    std::size_t size() const { return _rows.size(); }
    const NodeSummary& operator[](std::size_t i) const { return _rows[i]; }

    /** True when node @p i is up and carries none of @p holds. */
    bool available(std::size_t i, std::uint8_t holds) const
    {
        return _rows[i].down == 0 && (_rows[i].holds & holds) == 0;
    }

    /** Node @p i reports: @p fresh replaces every field it owns, the
     *  placements modelled since its last report included. */
    void report(std::size_t i, const NodeSummary& fresh)
    {
        const std::uint8_t holds = _rows[i].holds;
        _rows[i] = fresh;
        _rows[i].holds = holds;
    }
    /** Down until node @p i next reports (a crash routed this window). */
    void markDown(std::size_t i) { _rows[i].down = 1; }
    void setHold(std::size_t i, std::uint8_t hold, bool on)
    {
        std::uint8_t& holds = _rows[i].holds;
        holds = static_cast<std::uint8_t>(on ? holds | hold : holds & ~hold);
    }

    // In-window placement model (ShardScheduler): one more invocation
    // in flight, and the idle container it takes, if any.
    void place(std::size_t i) { ++_rows[i].inFlightPlusQueued; }
    void takeIdleLang(std::size_t i, std::size_t language)
    {
        --_rows[i].idleLang[language];
    }
    void takeIdleBare(std::size_t i) { --_rows[i].idleBare; }

  private:
    std::vector<NodeSummary> _rows;
};

} // namespace rc::cluster

#endif // RC_CLUSTER_SUMMARY_TABLE_HH_
