/**
 * @file
 * Pull-based arrival streams for cluster-scale replays.
 *
 * `expandArrivals` materializes the whole trace before the first event
 * fires — O(trace) RSS, which is the wall at the 100M-invocation tier
 * (a 100M-arrival vector is ~1.6 GB before the simulator allocates a
 * single container). ArrivalSource inverts the contract: consumers
 * pull one arrival at a time, so the cluster core holds only the
 * current window's arrivals and RSS is O(window), independent of
 * trace length.
 *
 * Determinism contract: a source must yield exactly the sequence
 * `expandArrivals` would have produced for the same trace — the
 * globally (time, function)-sorted expansion of §7.2 replay
 * semantics. TraceSetArrivalSource guarantees this with a k-way merge
 * over per-function cursors (each function's expansion is already
 * time-sorted, so a min-heap keyed (time, function) reproduces the
 * global sort; ties are identical values, so heap order among equals
 * cannot matter). The streaming-vs-materialized golden in
 * tests/test_sharded.cc pins the equivalence.
 */

#ifndef RC_TRACE_ARRIVAL_SOURCE_HH_
#define RC_TRACE_ARRIVAL_SOURCE_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hh"
#include "trace/replay.hh"
#include "trace/trace_set.hh"
#include "workload/types.hh"

namespace rc::workload {
class Catalog;
}

namespace rc::trace {

struct WorkloadTraceConfig;

/** A pull-based, time-ordered stream of invocation arrivals. */
class ArrivalSource
{
  public:
    virtual ~ArrivalSource() = default;

    /**
     * Latest arrival instant the stream will ever yield (the replay
     * horizon). Known up front — fault/network/recovery schedules are
     * drawn against it before the first arrival is consumed. 0 for an
     * empty stream.
     */
    virtual sim::Tick horizon() const = 0;

    /** Total arrivals the stream yields, known up front. */
    virtual std::uint64_t total() const = 0;

    /** True once every arrival has been consumed. */
    virtual bool done() const = 0;

    /** Next arrival; only valid while !done(). */
    virtual const Arrival& peek() const = 0;

    /** Consume the arrival returned by peek(). */
    virtual void pop() = 0;
};

/**
 * Adapter over an already-materialized, time-sorted arrival vector.
 * Non-owning: the vector must outlive the source. This is the
 * compatibility shim behind `ShardedCluster::run(const
 * std::vector<Arrival>&)` and `Node::run(const std::vector<Arrival>&)`.
 */
class VectorArrivalSource final : public ArrivalSource
{
  public:
    explicit VectorArrivalSource(const std::vector<Arrival>& arrivals);

    sim::Tick horizon() const override { return _horizon; }
    std::uint64_t total() const override { return _arrivals->size(); }
    bool done() const override { return _next >= _arrivals->size(); }
    const Arrival& peek() const override { return (*_arrivals)[_next]; }
    void pop() override { ++_next; }

    /** Rewind to the first arrival (re-run the same stream). */
    void reset() { _next = 0; }

  private:
    const std::vector<Arrival>* _arrivals;
    std::size_t _next = 0;
    sim::Tick _horizon = 0;
};

/**
 * Streams the §7.2 expansion of a minute-bucketed TraceSet without
 * ever materializing it: one cursor per function walks that
 * function's buckets (single invocation at the minute start, multiple
 * spread at kMinute/count), and a binary min-heap keyed
 * (time, function) merges the per-function streams into the exact
 * order `expandArrivals` + std::sort would produce. It either owns
 * the TraceSet, and so doubles as the generator adapter (move a
 * freshly generated set in), or borrows one the caller keeps. Memory
 * is O(functions), not O(invocations).
 */
class TraceSetArrivalSource final : public ArrivalSource
{
  public:
    explicit TraceSetArrivalSource(TraceSet set);

    /**
     * Stream @p set without copying it. Non-owning: the set must
     * outlive the source.
     */
    static TraceSetArrivalSource borrowing(const TraceSet& set);

    sim::Tick horizon() const override { return _horizon; }
    std::uint64_t total() const override { return _total; }
    bool done() const override { return _heap.empty(); }
    const Arrival& peek() const override { return _current; }
    void pop() override;

    /** Rewind to the first arrival (re-run the same stream). */
    void reset();

    const TraceSet& traceSet() const
    {
        return _owned ? *_owned : *_borrowed;
    }

  private:
    explicit TraceSetArrivalSource(const TraceSet* borrowed);

    /** Count the arrivals, find the horizon and rewind. */
    void init();

    /** One function's position in its own expansion. */
    struct Cursor
    {
        sim::Tick time = 0;
        workload::FunctionId function = workload::kInvalidFunction;
        std::uint32_t trace = 0;  ///< index into traceSet().traces()
        std::uint32_t minute = 0; ///< current bucket
        std::uint32_t index = 0;  ///< arrival index within the bucket
    };

    /** Min-heap order on (time, function). */
    static bool cursorAfter(const Cursor& a, const Cursor& b);

    /** Position `cur` at bucket >= minute; false when exhausted. */
    bool seekBucket(Cursor& cur, std::uint32_t minute) const;

    /** Step `cur` to its next arrival; false when exhausted. */
    bool advance(Cursor& cur) const;

    void refreshCurrent();

    std::optional<TraceSet> _owned;      ///< empty when borrowing
    const TraceSet* _borrowed = nullptr; ///< the caller's set, if borrowed
    std::vector<Cursor> _heap;
    Arrival _current;
    sim::Tick _horizon = 0;
    std::uint64_t _total = 0;
};

/**
 * Generator adapter: draw an Azure-like workload and stream it.
 * Equivalent to expandArrivals(generateAzureLike(catalog, config))
 * without the O(invocations) vector.
 */
TraceSetArrivalSource makeAzureLikeSource(const workload::Catalog& catalog,
                                          const WorkloadTraceConfig& config);

} // namespace rc::trace

#endif // RC_TRACE_ARRIVAL_SOURCE_HH_
