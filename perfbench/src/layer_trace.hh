/**
 * @file
 * Outside-in layer tracing for the benchmark.
 *
 * The benchmark never instruments the library itself. It measures
 * layers from the seams the library already exposes:
 *
 *  - TracingPolicy forwards every virtual of policy::Policy to the
 *    wrapped policy (RainbowCake), counts each call against its hook
 *    and times the decision hooks;
 *  - TracingView sits between the policy and the PlatformView it is
 *    attached to, so the platform work a policy triggers from inside
 *    a hook (availability checks, pool scans) is charged to the
 *    platform and not to the policy's self time;
 *  - TracingSource forwards trace::ArrivalSource and times each pop.
 *
 * Per-call layers are aggregated into a call count and a nanosecond
 * sum per entry point rather than logged one span per call: a replay
 * makes millions of hook calls, and the aggregate is all the
 * per-layer metrics need. Coarse phases the benchmark drives itself
 * (setup steps, the timed call) go into a SpanLog, kept in memory and
 * written out when the replay ends.
 */

#ifndef PERFBENCH_LAYER_TRACE_HH_
#define PERFBENCH_LAYER_TRACE_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "policy/policy.hh"
#include "trace/arrival_source.hh"

namespace perfbench {

/** Host wall clock in nanoseconds (steady, arbitrary epoch). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Calls made to one entry point and the wall time spent inside them. */
struct CallStat
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    CallStat&
    operator+=(const CallStat& other)
    {
        calls += other.calls;
        ns += other.ns;
        return *this;
    }
};

/** Charges its own lifetime to a CallStat. */
class ScopedCall
{
  public:
    explicit ScopedCall(CallStat& stat) : _stat(stat), _start(nowNs()) {}
    ~ScopedCall()
    {
        ++_stat.calls;
        _stat.ns += nowNs() - _start;
    }

    ScopedCall(const ScopedCall&) = delete;
    ScopedCall& operator=(const ScopedCall&) = delete;

  private:
    CallStat& _stat;
    std::uint64_t _start;
};

/** The virtuals of policy::Policy, one per wrapped entry point. */
enum class Hook : std::uint8_t
{
    Name,
    Attach,
    OnArrival,
    OnStartupResolved,
    OnContainerFailed,
    OnNodeDown,
    KeepAliveTtl,
    OnIdleExpired,
    LayerSharingEnabled,
    AcceptsRecoveryPrewarm,
    AllowForeignUserContainer,
    RankEvictionVictims,
    PartialStartLatencyFactor,
    PartialStartLatencyBias,
    ForeignUserStartupLatency,
    ForkSharedLayers,
    ForkLatency,
    ColdStartFactor,
    AuxiliaryMemoryMb,
};

inline constexpr std::size_t kHookCount =
    static_cast<std::size_t>(Hook::AuxiliaryMemoryMb) + 1;

/**
 * What one wrapped policy instance observed. Owned by the benchmark,
 * not by the wrapper, so it outlives the node that destroys the
 * policy. Cache-line aligned: the fleet keeps one per node, and nodes
 * of different shards run on different threads.
 */
struct alignas(64) PolicyTrace
{
    std::array<CallStat, kHookCount> hooks{};
    /** PlatformView callbacks the policy made (all from inside hooks);
     *  ns covers the timed ones. */
    CallStat view;

    CallStat& operator[](Hook hook)
    {
        return hooks[static_cast<std::size_t>(hook)];
    }
    const CallStat& operator[](Hook hook) const
    {
        return hooks[static_cast<std::size_t>(hook)];
    }

    /** Sum over every hook. */
    CallStat hookTotal() const;

    PolicyTrace& operator+=(const PolicyTrace& other);
};

/**
 * Counts every PlatformView callback a policy makes and times those
 * that do platform work; the now() and catalog() accessors are only
 * counted.
 */
class TracingView final : public rc::policy::PlatformView
{
  public:
    explicit TracingView(CallStat& stat) : _stat(stat) {}

    // The wrapped policy keeps this view's address.
    TracingView(const TracingView&) = delete;
    TracingView& operator=(const TracingView&) = delete;

    /** Forward to @p inner from now on. */
    void wrap(rc::policy::PlatformView& inner) { _inner = &inner; }

    rc::sim::Tick now() const override;
    const rc::workload::Catalog& catalog() const override;
    bool userContainerAvailable(
        rc::workload::FunctionId function) const override;
    void schedulePrewarm(rc::workload::FunctionId function,
                         rc::sim::Tick delay) override;
    std::vector<const rc::container::Container*>
    idleContainers() const override;
    std::size_t idleCountAtLayer(
        rc::workload::Layer layer,
        std::optional<rc::workload::Language> language) const override;

  private:
    rc::policy::PlatformView* _inner = nullptr;
    CallStat& _stat;
};

/**
 * Forwards all 19 virtuals of policy::Policy to a wrapped policy and
 * counts each call against its Hook in a PolicyTrace; the decision
 * hooks (the non-const ones) are timed as well.
 *
 * setObserver() and setPressureLevel() are not virtual, so the
 * platform's calls land on the wrapper; every forwarded call first
 * pushes both values on to the wrapped policy, which therefore sees
 * exactly what it would have seen unwrapped.
 */
class TracingPolicy final : public rc::policy::Policy
{
  public:
    TracingPolicy(std::unique_ptr<rc::policy::Policy> inner,
                  PolicyTrace& trace);

    TracingPolicy(const TracingPolicy&) = delete;
    TracingPolicy& operator=(const TracingPolicy&) = delete;

    std::string name() const override;
    void attach(rc::policy::PlatformView& view) override;
    void onArrival(rc::workload::FunctionId function) override;
    void onStartupResolved(
        const rc::policy::StartupObservation& observation) override;
    void onContainerFailed(const rc::container::Container& c) override;
    void onNodeDown(rc::sim::Tick downtime) override;
    rc::sim::Tick keepAliveTtl(const rc::container::Container& c) override;
    rc::policy::IdleDecision
    onIdleExpired(const rc::container::Container& c) override;
    bool layerSharingEnabled() const override;
    bool acceptsRecoveryPrewarm(rc::workload::Layer layer) const override;
    bool allowForeignUserContainer(
        const rc::container::Container& c,
        rc::workload::FunctionId function) const override;
    std::vector<rc::container::ContainerId> rankEvictionVictims(
        const std::vector<const rc::container::Container*>& idle) override;
    double partialStartLatencyFactor() const override;
    rc::sim::Tick partialStartLatencyBias() const override;
    rc::sim::Tick foreignUserStartupLatency(
        const rc::container::Container& c,
        rc::workload::FunctionId function) const override;
    bool forkSharedLayers() const override;
    rc::sim::Tick forkLatency() const override;
    double coldStartFactor() const override;
    double auxiliaryMemoryMb(
        const rc::workload::FunctionProfile& profile) const override;

  private:
    /** Push the non-virtual state the platform set on the wrapper. */
    void sync() const;

    /** A decision hook: counted and timed. */
    template <class F>
    decltype(auto)
    forward(Hook hook, F&& call) const
    {
        sync();
        const ScopedCall timer(_trace[hook]);
        return call();
    }

    /**
     * A query hook (a const getter such as layerSharingEnabled):
     * counted only. The platform asks some of them millions of times
     * per replay, and two clock reads would cost more than the body.
     */
    template <class F>
    decltype(auto)
    query(Hook hook, F&& call) const
    {
        sync();
        ++_trace[hook].calls;
        return call();
    }

    std::unique_ptr<rc::policy::Policy> _inner;
    PolicyTrace& _trace;
    mutable TracingView _tracingView;
    mutable rc::obs::Observer* _pushedObserver = nullptr;
};

/** Forwards all 5 ArrivalSource members and times each pop. */
class TracingSource final : public rc::trace::ArrivalSource
{
  public:
    explicit TracingSource(rc::trace::ArrivalSource& inner)
        : _inner(inner)
    {
    }

    rc::sim::Tick horizon() const override { return _inner.horizon(); }
    std::uint64_t total() const override { return _inner.total(); }
    bool done() const override { return _inner.done(); }
    const rc::trace::Arrival& peek() const override
    {
        return _inner.peek();
    }
    void
    pop() override
    {
        const ScopedCall timer(_pops);
        _inner.pop();
    }

    const CallStat& pops() const { return _pops; }

  private:
    rc::trace::ArrivalSource& _inner;
    CallStat _pops;
};

/** One timed phase of a replay; parent is an index or -1. */
struct Span
{
    std::string name;
    int parent = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    double
    seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

/** The spans of one replay, in opening order. */
class SpanLog
{
  public:
    /** Open a span and return its index. */
    int open(std::string name, int parent = -1);
    void close(int index);

    /** Run @p work inside a span named @p name and return its result. */
    template <class F>
    decltype(auto)
    time(std::string name, int parent, F&& work)
    {
        struct Closer
        {
            SpanLog& log;
            int index;
            ~Closer() { log.close(index); }
        } closer{*this, open(std::move(name), parent)};
        return work();
    }

    /** Total seconds of the spans named @p name (0 when none). */
    double seconds(const std::string& name) const;

    const std::vector<Span>& spans() const { return _spans; }

  private:
    std::vector<Span> _spans;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_TRACE_HH_
