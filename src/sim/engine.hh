/**
 * @file
 * Discrete-event simulation engine.
 *
 * The engine owns one 4-ary min-heap of 24-byte POD nodes keyed on
 * (tick, seq), where seq numbers schedule() calls. Events fire in time
 * order, and events on the same tick fire in scheduling order (FIFO),
 * including events a callback schedules for the current tick; this
 * makes runs fully deterministic. Scheduled events can be cancelled,
 * which is the mechanism behind keep-alive TTL renewal: a container
 * cancels its pending timeout when it is reused and schedules a fresh
 * one when it goes idle again.
 *
 * Layout:
 *  - callbacks are `InplaceCallback`s (48-byte small-buffer storage,
 *    no per-event heap allocation) in a slot table whose slots are
 *    recycled through a free list;
 *  - every slot carries a generation counter, bumped whenever the
 *    slot is released. EventIds and heap nodes both name a (slot,
 *    generation) pair, so a stale handle is a harmless no-op and a
 *    stale heap node is recognised on sight;
 *  - cancel() releases the slot in O(1) and leaves the event's heap
 *    node behind, where it costs 24 bytes until its tick surfaces.
 *    run(), runUntil(), runBefore() and step() drop stale nodes when
 *    they reach the front, before any horizon check, so whenever
 *    run(), runUntil() or runBefore() returns the front is the
 *    earliest live event.
 *
 * The replayed workloads dispatch one to 1.2 events per distinct tick
 * (DESIGN.md §7.1), so the heap does not batch events by tick.
 */

#ifndef RC_SIM_ENGINE_HH_
#define RC_SIM_ENGINE_HH_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inplace_callback.hh"
#include "sim/time.hh"

namespace rc::sim {

/** Opaque handle to a scheduled event; 0 is never a valid id. */
using EventId = std::uint64_t;

/** Sentinel id meaning "no event". */
inline constexpr EventId kNoEvent = 0;

/**
 * Deterministic discrete-event engine.
 *
 * Not thread-safe by design: a simulation run is a single logical
 * timeline, and determinism (same seed, same schedule, same results)
 * is a hard requirement of the experiment harness. Parallel sweeps
 * (`rc::exp::ParallelRunner`) give each run its own Engine.
 */
class Engine
{
  public:
    using Callback = InplaceCallback;

    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when  Absolute tick; must be >= now().
     * @param cb    Callback invoked when simulated time reaches @p when;
     *              must not be empty.
     * @return Handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks after the current time. */
    EventId scheduleAfter(Tick delay, Callback cb);

    /**
     * Cancel a pending event.
     *
     * Cancelling an id that already fired or was already cancelled is
     * a harmless no-op so callers do not need to track firing order.
     *
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** @return true if @p id refers to a still-pending event. */
    bool pending(EventId id) const;

    /** Run until the event queue drains. */
    void run();

    /**
     * Run until the queue drains or simulated time would pass
     * @p horizon. Events at exactly @p horizon still fire; the clock
     * never exceeds the horizon.
     */
    void runUntil(Tick horizon);

    /**
     * Fire every event strictly before @p tick, then leave the clock
     * at @p tick (never moving it back), also when no event was due.
     * Events at exactly @p tick stay pending, so work injected at
     * @p tick from outside the engine runs before them: this is how a
     * node fires its pulled arrivals ahead of the runtime events of
     * their tick.
     */
    void runBefore(Tick tick);

    /** Execute at most one event. @return false if the queue is empty. */
    bool step();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events executed since construction. */
    std::uint64_t executedEvents() const { return _executed; }

    /** Number of schedule() calls since construction. */
    std::uint64_t scheduledEvents() const { return _scheduled; }

    /** Number of successful cancels since construction. */
    std::uint64_t cancelledEvents() const { return _cancelled; }

    /** Number of live (scheduled, non-cancelled) events. */
    std::size_t pendingEvents() const { return _live; }

    /**
     * Earliest pending tick, or Tick's max when the queue is empty.
     * Conservative: the heap front may be a cancelled event, so the
     * returned tick can be earlier than the next event that will
     * actually fire — callers may poll too early, never too late.
     * Right after run(), runUntil() or runBefore() the front is live
     * and the tick is exact. The sharded cluster core uses this to
     * skip idle nodes in a barrier window without touching the heap.
     */
    Tick
    nextEventAt() const
    {
        return _heap.empty() ? std::numeric_limits<Tick>::max()
                             : _heap[0].when;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** POD heap node: one per scheduled event until it is popped. */
    struct HeapNode
    {
        Tick when;
        std::uint64_t seq; // schedule() call number: the FIFO tiebreak
        std::uint32_t slot;
        std::uint32_t generation; // stale once the slot's has moved on
    };

    static bool
    before(const HeapNode& a, const HeapNode& b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        // Low word: slot + 1, so id 0 is never produced. High word:
        // generation, so slot reuse invalidates old handles.
        return (static_cast<EventId>(generation) << 32) |
               static_cast<EventId>(slot + 1);
    }

    /** @return slot index for @p id, or kNil if not pending. */
    std::uint32_t decodeLive(EventId id) const;

    std::uint32_t acquireSlot(InplaceCallback&& cb);
    void releaseSlot(std::uint32_t slot);

    void siftUp(std::size_t pos, HeapNode node);
    void siftDown(std::size_t pos, HeapNode node);
    /** Remove the heap front, restoring heap order. */
    void popFront();

    /**
     * Drop stale (cancelled) nodes at the heap front.
     * @return true if a live event is now at the front.
     */
    bool pruneFront();

    /**
     * Pop and run the front event; precondition: pruneFront()
     * returned true.
     */
    void dispatchFront();

    Tick _now = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _scheduled = 0;
    std::uint64_t _cancelled = 0;
    std::size_t _live = 0;
    std::vector<HeapNode> _heap;
    // Slot table: a slot is live iff its callback is non-empty.
    std::vector<InplaceCallback> _cbs;
    std::vector<std::uint32_t> _generations;
    std::vector<std::uint32_t> _freeSlots;
};

} // namespace rc::sim

#endif // RC_SIM_ENGINE_HH_
