/**
 * @file
 * Persistent crew for sharded simulation rounds.
 *
 * A sharded cluster run alternates short serial coordinator phases
 * with parallel shard phases, hundreds of thousands of times per run.
 * Spawning threads per phase would dominate the run, so the executor
 * keeps a fixed crew alive and hands it one *round* at a time:
 * runRound(n, fn) invokes fn(i) for every i in [0, n) across the crew
 * and returns when all of them finished. The calling thread is a crew
 * member: it claims items alongside the workers, so a crew of T
 * spawns T - 1 threads.
 *
 * The round handshake is two atomics, the round generation and the
 * count of unfinished items, plus a claim word. The caller stores the
 * round function, sets the unfinished count, publishes the claim word
 * (round number, items left) and bumps the generation, the last two
 * with release order. Every crew member, the caller included, claims
 * an item by decrementing the claim word while it still carries the
 * round's number, runs it, and retires it with a release decrement of
 * the unfinished count; the caller returns once it acquires that
 * count at zero. Those edges give the caller what it needs:
 * everything it wrote before runRound is visible to whoever runs an
 * item, and everything the items wrote is visible to it afterwards.
 *
 * A round waits for its items, never for workers: a worker that is
 * parked or descheduled when the round starts, and wakes after the
 * others claimed every item, finds a later round number in the claim
 * word and touches nothing. Counting workers out of each round
 * instead made every round wait until the slowest worker was
 * scheduled, which collapsed as soon as two replays shared the CPUs
 * (DESIGN.md §12).
 *
 * Waiting, by a worker for the next round or by the caller for the
 * last items, spins for kSpinBound of wall time, then parks on the
 * atomic (std::atomic::wait / notify, a futex on Linux).
 *
 * Determinism: the executor never influences results. *Which* crew
 * member runs an item (and in what interleaving) varies between
 * executions, so callers must only submit items that touch disjoint
 * state (rc::cluster shards do: every node belongs to exactly one
 * shard). A crew of one spawns nothing and runs rounds inline, which
 * keeps `--shards 1` runs literally single-threaded.
 */

#ifndef RC_SIM_SHARD_EXECUTOR_HH_
#define RC_SIM_SHARD_EXECUTOR_HH_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace rc::sim {

/** Fixed crew, the caller included, executing synchronized rounds. */
class ShardExecutor
{
  public:
    using RoundFn = std::function<void(std::size_t)>;

    /**
     * How long a waiting crew member spins before it parks. Counted in
     * wall time, not in pause instructions, whose cost varies by CPU.
     * Keep it at or below 20 µs: a spinning crew burns the CPUs it
     * shares with other work, and past 20 µs the fleet replay gains
     * nothing (DESIGN.md §12 has the measurements).
     */
    static constexpr std::chrono::nanoseconds kSpinBound =
        std::chrono::microseconds(20);

    /**
     * @param crew       Crew size, the calling thread included; 0 and
     *                   1 spawn no thread and run rounds inline.
     * @param timeWaits  Sum into waitNs() the wall time the caller
     *                   waits for the crew after its own share. Off,
     *                   the executor reads no clock outside its spins.
     */
    explicit ShardExecutor(std::size_t crew, bool timeWaits = false);

    ShardExecutor(const ShardExecutor&) = delete;
    ShardExecutor& operator=(const ShardExecutor&) = delete;

    /** Stops and joins the crew; workers may be spinning or parked. */
    ~ShardExecutor();

    /** Crew size, the calling thread included (1 means inline). */
    std::size_t crew() const { return _threads.size() + 1; }

    /**
     * Run @p fn(i) for every i in [0, count) (count < 2^32) on the
     * crew and the calling thread, and wait for completion. @p fn must
     * be safe to call concurrently for distinct indices. The first
     * exception an item throws, on the caller or on a worker, is
     * rethrown here once every item has finished.
     */
    void runRound(std::size_t count, const RoundFn& fn);

    /** Nanoseconds the caller spent waiting for the crew (timeWaits). */
    std::uint64_t waitNs() const { return _waitNs; }

  private:
    void workerLoop();
    /** Claim, run and retire items of @p round until none is left. */
    void drain(std::uint32_t round);

    const bool _timeWaits;
    std::uint64_t _waitNs = 0;

    /** Round number; a bump starts a round (or stops the crew). */
    std::atomic<std::uint32_t> _generation{0};
    /** Items of the current round not finished yet. */
    std::atomic<std::uint32_t> _unfinished{0};
    /** (round number << 32) | items not claimed yet. */
    std::atomic<std::uint64_t> _claim{0};
    std::atomic<bool> _stopping{false};

    /** The round's function: written before the claim word is. */
    const RoundFn* _fn = nullptr;
    std::atomic<bool> _failed{false}; //!< first thrower claims _error
    std::exception_ptr _error;

    /** Declared last: the workers use every member above. */
    std::vector<std::thread> _threads;
};

} // namespace rc::sim

#endif // RC_SIM_SHARD_EXECUTOR_HH_
