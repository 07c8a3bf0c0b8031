#include "sim/shard_executor.hh"

#include <utility>

namespace rc::sim {

namespace {

/** Tell the CPU this is a spin-wait (frees the core's sibling). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/** Poll @p ready for up to kSpinBound; true once it holds. */
template <typename Ready>
bool
spinFor(const Ready& ready)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + ShardExecutor::kSpinBound;
    do {
        if (ready())
            return true;
        cpuRelax();
    } while (Clock::now() < deadline);
    return ready();
}

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ShardExecutor::ShardExecutor(std::size_t crew, bool timeWaits)
    : _timeWaits(timeWaits)
{
    for (std::size_t i = 1; i < crew; ++i)
        _threads.emplace_back([this] { workerLoop(); });
}

ShardExecutor::~ShardExecutor()
{
    if (_threads.empty())
        return;
    _stopping.store(true, std::memory_order_relaxed);
    _generation.fetch_add(1, std::memory_order_release);
    _generation.notify_all();
    for (auto& thread : _threads)
        thread.join();
}

void
ShardExecutor::drain(std::uint32_t round)
{
    std::uint64_t claim = _claim.load(std::memory_order_acquire);
    while ((claim >> 32) == round && (claim & 0xffffffffu) != 0) {
        if (!_claim.compare_exchange_weak(claim, claim - 1,
                                          std::memory_order_acquire))
            continue;
        try {
            (*_fn)((claim & 0xffffffffu) - 1);
        } catch (...) {
            // Read by the caller only once every item finished, which
            // the release decrement below orders after this write.
            if (!_failed.exchange(true, std::memory_order_relaxed))
                _error = std::current_exception();
        }
        if (_unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1)
            _unfinished.notify_one();
        claim = _claim.load(std::memory_order_acquire);
    }
}

void
ShardExecutor::runRound(std::size_t count, const RoundFn& fn)
{
    if (count <= 1 || _threads.empty()) {
        // Inline: at most one item, or a crew of one. Workers never
        // touch round state outside a claimed item, and the next
        // claim word publishes what fn wrote.
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    const std::uint32_t round =
        _generation.load(std::memory_order_relaxed) + 1;
    _fn = &fn;
    _failed.store(false, std::memory_order_relaxed);
    _unfinished.store(static_cast<std::uint32_t>(count),
                      std::memory_order_relaxed);
    _claim.store((std::uint64_t{round} << 32) | count,
                 std::memory_order_release);
    _generation.store(round, std::memory_order_release);
    _generation.notify_all();

    drain(round);

    const std::uint64_t waitStart = _timeWaits ? steadyNs() : 0;
    const auto finished = [this] {
        return _unfinished.load(std::memory_order_acquire) == 0;
    };
    if (!spinFor(finished)) {
        std::uint32_t left;
        while ((left = _unfinished.load(std::memory_order_acquire)) != 0)
            _unfinished.wait(left, std::memory_order_acquire);
    }
    if (_timeWaits)
        _waitNs += steadyNs() - waitStart;
    if (_error)
        std::rethrow_exception(std::exchange(_error, nullptr));
}

void
ShardExecutor::workerLoop()
{
    std::uint32_t seen = 0;
    while (true) {
        const auto started = [this, &seen] {
            return _generation.load(std::memory_order_acquire) != seen;
        };
        if (!spinFor(started))
            _generation.wait(seen, std::memory_order_acquire);
        seen = _generation.load(std::memory_order_acquire);
        if (_stopping.load(std::memory_order_relaxed))
            return;
        drain(seen);
    }
}

} // namespace rc::sim
