/**
 * @file
 * RainbowCake: layer-wise, sharing-aware pre-warming and keep-alive.
 *
 * The paper's contribution, assembled from the core pieces:
 *
 *   * Pre-warming (Algorithm 1): every arrival records into the
 *     History Recorder and schedules an asynchronous pre-warm event
 *     one predicted inter-arrival time (Eq. 4, function-specific
 *     Poisson) in the future; the platform skips the pre-warm if warm
 *     capacity already exists at fire time.
 *
 *   * Keep-alive (Algorithm 2): an idle container peels one layer per
 *     expired TTL (User -> Lang -> Bare -> terminated). Each new TTL
 *     is min(IAT(k, p), beta(k)) (Eq. 7), where the IAT prediction of
 *     a shared layer uses the *compound* rate of every function that
 *     could hit it (Eq. 2) and beta bounds idle memory cost by saved
 *     startup latency (Eq. 6).
 *
 *   * Sharing: idle Lang containers serve any same-language function,
 *     idle Bare containers serve anyone (layerSharingEnabled).
 *
 * Ablation knobs reproduce the §7.3 variants: disabling
 * sharing-aware modeling replaces the modeled TTLs with fixed 5/3/2
 * minute windows; disabling layer caching terminates idle User
 * containers on expiry and turns off partial-container sharing.
 */

#ifndef RC_CORE_RAINBOWCAKE_POLICY_HH_
#define RC_CORE_RAINBOWCAKE_POLICY_HH_

#include <array>
#include <string>

#include "core/cost_model.hh"
#include "core/history_recorder.hh"
#include "core/poisson_model.hh"
#include "policy/policy.hh"
#include "workload/catalog.hh"

namespace rc::core {

/** All tunables of RainbowCake (paper defaults, §7.1). */
struct RainbowCakeConfig
{
    /** Cost knob alpha (Fig. 11a; default 0.996). */
    double alpha = 0.996;
    /** Eq. 6 memory-unit calibration (see CostConfig). */
    double betaMemoryUnitMb = 160.0;
    /** IAT confidence quantile p (Fig. 11b; default 0.8). */
    double quantile = 0.8;
    /**
     * Quantile used when scheduling pre-warm events (Algorithm 1
     * estimates "the IAT of the next invocation arrival" without
     * pinning a quantile; the median schedules the pre-warm slightly
     * before the typical arrival, which is what makes it a
     * *pre*-warm).
     */
    double prewarmQuantile = 0.6;
    /** Sliding-window size n (Fig. 11c; default 6). */
    std::size_t windowSize = 6;

    /** Enable pre-warming (Algorithm 1). */
    bool prewarmEnabled = true;

    /** §7.3 ablation: sharing-aware TTL modeling. */
    bool sharingAwareModeling = true;
    /** Fixed TTLs used when sharing-aware modeling is disabled. */
    sim::Tick fixedUserTtl = 5 * sim::kMinute;
    sim::Tick fixedLangTtl = 3 * sim::kMinute;
    sim::Tick fixedBareTtl = 2 * sim::kMinute;

    /** §7.3 ablation: layer-wise caching (false: User-only). */
    bool layerCaching = true;

    /**
     * Whether the shared-layer (Lang/Bare) keep-alive windows apply
     * the quantile-IAT term of Eq. 7 on top of the beta bound. With
     * the compound arrival rates of Eq. 2, the literal min(IAT, beta)
     * makes shared layers live only fractions of a second whenever
     * the platform is busy — which contradicts the burst tolerance
     * the paper reports (§7.6) and the long Lang/Bare windows of
     * Fig. 4. The default keeps shared layers for their full
     * cost-parity window beta(k); set true for the literal Eq. 7.
     */
    bool quantileBoundsSharedLayers = false;

    /**
     * Cap on idle shared containers: at most this many idle Lang
     * containers per language and this many idle Bare containers are
     * kept; a container that would downgrade into a full pool is
     * terminated instead. Duplicate idle copies of an identical
     * shareable layer add memory cost without adding reach.
     */
    std::size_t maxIdleSharedPerGroup = 2;

    /**
     * §8 zygote-template mode: serve Lang/Bare hits by forking the
     * shared container (the template stays resident) instead of
     * consuming it. Absorbs concurrent same-language bursts with one
     * template at the cost of the clone's footprint + fork latency.
     */
    bool shareByFork = false;
    /** Fork cost when shareByFork is enabled. */
    sim::Tick forkLatency = 15 * sim::kMillisecond;
};

/** The RainbowCake policy. */
class RainbowCakePolicy : public policy::Policy
{
  public:
    RainbowCakePolicy(const workload::Catalog& catalog,
                      RainbowCakeConfig config = {});

    std::string name() const override { return _name; }
    void setName(std::string name) { _name = std::move(name); }

    void onArrival(workload::FunctionId function) override;
    sim::Tick keepAliveTtl(const container::Container& c) override;
    policy::IdleDecision
    onIdleExpired(const container::Container& c) override;
    bool layerSharingEnabled() const override
    {
        return _config.layerCaching;
    }
    bool forkSharedLayers() const override { return _config.shareByFork; }
    sim::Tick forkLatency() const override { return _config.forkLatency; }

    /**
     * Fault hooks (rc::fault). A container killed by an injected
     * fault is not idle-timeout evidence: the History Recorder only
     * ever learns from arrivals, and retries re-dispatch without
     * re-recording, so these overrides merely count what was lost —
     * tests assert the history of a faulty run matches a fault-free
     * twin fed the same arrival sequence.
     */
    void onContainerFailed(const container::Container& c) override
    {
        (void)c;
        ++_failureKills;
    }
    void onNodeDown(sim::Tick downtime) override
    {
        (void)downtime;
        ++_nodeDownEvents;
    }

    /** Containers lost to injected faults (not policy decisions). */
    std::uint64_t failureKills() const { return _failureKills; }
    /** Node crashes this policy's node suffered. */
    std::uint64_t nodeDownEvents() const { return _nodeDownEvents; }

    /** The recorder (read access for tests and diagnostics). */
    const HistoryRecorder& history() const { return _history; }

    /** The cost model in use. */
    const CostModel& costModel() const { return _cost; }

    /** Active configuration. */
    const RainbowCakeConfig& config() const { return _config; }

    /**
     * TTL a type-@p layer container of @p function would get right
     * now (exposed so tests can pin Eqs. 4-7 end to end).
     */
    sim::Tick currentTtl(workload::FunctionId function,
                         workload::Layer layer) const;

  private:
    /** Predicted IAT of layer-k hits; negative when no estimate. */
    sim::Tick predictedIat(workload::FunctionId function,
                           workload::Layer layer) const;

    /** beta for a shared layer from per-group averaged t/m (Eq. 5). */
    sim::Tick sharedBeta(workload::Language language,
                         workload::Layer layer) const;

    const workload::Catalog& _catalog;
    RainbowCakeConfig _config;
    CostModel _cost;
    HistoryRecorder _history;
    std::string _name = "RainbowCake";

    /** Per-language average lang-stage latency (s) and footprint (MB). */
    std::array<double, workload::kLanguageCount> _avgLangInitSeconds{};
    std::array<double, workload::kLanguageCount> _avgLangMemoryMb{};
    /** Global average bare-stage latency (s) and footprint (MB). */
    double _avgBareInitSeconds = 0.0;
    double _avgBareMemoryMb = 0.0;

    /** Fault bookkeeping (see onContainerFailed / onNodeDown). */
    std::uint64_t _failureKills = 0;
    std::uint64_t _nodeDownEvents = 0;
};

} // namespace rc::core

#endif // RC_CORE_RAINBOWCAKE_POLICY_HH_
