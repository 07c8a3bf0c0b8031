#include "core/rainbowcake_policy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rc::core {

using workload::Language;
using workload::Layer;

RainbowCakePolicy::RainbowCakePolicy(const workload::Catalog& catalog,
                                     RainbowCakeConfig config)
    : _catalog(catalog), _config(config),
      _cost(CostConfig{config.alpha, config.betaMemoryUnitMb}),
      _history(catalog, config.windowSize)
{
    if (config.quantile < 0.0 || config.quantile >= 1.0)
        sim::fatal("RainbowCakePolicy: quantile must lie in [0,1)");

    // Precompute the Eq. 5 averages for shared layers: per-language
    // lang-stage figures and global bare-stage figures.
    std::array<double, workload::kLanguageCount> langCount{};
    for (const auto& profile : _catalog) {
        const auto idx = workload::languageIndex(profile.language());
        _avgLangInitSeconds[idx] +=
            sim::toSeconds(profile.stageLatency(Layer::Lang));
        _avgLangMemoryMb[idx] += profile.memoryAtLayer(Layer::Lang);
        langCount[idx] += 1.0;
        _avgBareInitSeconds +=
            sim::toSeconds(profile.stageLatency(Layer::Bare));
        _avgBareMemoryMb += profile.memoryAtLayer(Layer::Bare);
    }
    for (std::size_t i = 0; i < workload::kLanguageCount; ++i) {
        if (langCount[i] > 0.0) {
            _avgLangInitSeconds[i] /= langCount[i];
            _avgLangMemoryMb[i] /= langCount[i];
        }
    }
    if (!_catalog.empty()) {
        const auto n = static_cast<double>(_catalog.size());
        _avgBareInitSeconds /= n;
        _avgBareMemoryMb /= n;
    }
}

void
RainbowCakePolicy::onArrival(workload::FunctionId function)
{
    const sim::Tick now = _view->now();
    _history.recordArrival(function, now);

    if (!_config.prewarmEnabled)
        return;

    // Algorithm 1: schedule an async pre-warm one predicted IAT out;
    // the platform re-checks Available() at fire time.
    const auto rate = _history.functionRate(function, now);
    if (rate && *rate > 0.0) {
        _view->schedulePrewarm(
            function, quantileIat(*rate, _config.prewarmQuantile));
    }
}

sim::Tick
RainbowCakePolicy::predictedIat(workload::FunctionId function,
                                Layer layer) const
{
    const sim::Tick now = _view->now();
    double lambda = 0.0;
    switch (layer) {
      case Layer::User: {
        const auto rate = _history.functionRate(function, now);
        if (!rate)
            return -1;
        lambda = *rate;
        break;
      }
      case Layer::Lang:
        lambda = _history.languageRate(_catalog.at(function).language(),
                                       now);
        break;
      case Layer::Bare:
        lambda = _history.globalRate(now);
        break;
      case Layer::None:
        return -1;
    }
    if (lambda <= 0.0)
        return -1;
    return quantileIat(lambda, _config.quantile);
}

sim::Tick
RainbowCakePolicy::sharedBeta(Language language, Layer layer) const
{
    if (layer == Layer::Lang) {
        const auto idx = workload::languageIndex(language);
        return _cost.betaFromRaw(_avgLangInitSeconds[idx],
                                 _avgLangMemoryMb[idx]);
    }
    if (layer == Layer::Bare)
        return _cost.betaFromRaw(_avgBareInitSeconds, _avgBareMemoryMb);
    sim::panic("RainbowCakePolicy::sharedBeta: bad layer");
}

sim::Tick
RainbowCakePolicy::currentTtl(workload::FunctionId function,
                              Layer layer) const
{
    if (!_config.sharingAwareModeling) {
        switch (layer) {
          case Layer::User: return _config.fixedUserTtl;
          case Layer::Lang: return _config.fixedLangTtl;
          case Layer::Bare: return _config.fixedBareTtl;
          case Layer::None: return 0;
        }
    }

    if (layer == Layer::User) {
        // Eq. 7 for the User layer; keepAliveTtl() decides whether a
        // specific container gets this window or the plain beta bound.
        const sim::Tick iat = predictedIat(function, Layer::User);
        return _cost.ttl(_catalog.at(function), Layer::User, iat);
    }

    const sim::Tick bound =
        sharedBeta(_catalog.at(function).language(), layer);
    if (!_config.quantileBoundsSharedLayers)
        return bound;
    const sim::Tick iat = predictedIat(function, layer);
    if (iat < 0)
        return bound;
    return std::min(iat, bound);
}

sim::Tick
RainbowCakePolicy::keepAliveTtl(const container::Container& c)
{
    // Freshly idle containers are always full User containers (after
    // execution or a completed pre-warm).
    const workload::FunctionId f =
        c.function() != workload::kInvalidFunction ? c.function()
                                                   : c.initFunction();
    sim::Tick ttl = 0;
    if (!_config.sharingAwareModeling) {
        ttl = _config.fixedUserTtl;
    } else if (c.everExecuted() && pressureLevel() < 2) {
        // At ladder level >= 2 (rc::admission) this generous branch is
        // bypassed: the User window falls back to the quantile-bounded
        // min(IAT, beta) below, so containers peel to the cheaper
        // L2/L1 layers quickly and the pool caches decayed layers
        // instead of full-window L3 containers.
        // Per §7.1, the initial keep-alive TTL of a container that
        // served an invocation is the upper bound beta(u): it may stay
        // idle until its memory cost reaches the startup cost its User
        // layer saves; Eq. 7's min(IAT, beta) applies at the downgrade
        // transitions of Algorithm 2. Speculative (pre-warmed, never
        // executed) containers exist for one predicted arrival only,
        // so their window is quantile-bounded: if the predicted
        // invocation does not materialize, they downgrade promptly.
        ttl = _cost.beta(_catalog.at(f), Layer::User);
    } else {
        ttl = currentTtl(f, Layer::User);
    }
    if (_obs != nullptr) {
        // Decision audit: the model inputs behind this TTL (arg1 is
        // the quantile-predicted IAT; -1 when no history exists).
        const sim::Tick iat = predictedIat(f, Layer::User);
        _obs->emit(_view->now(), obs::EventType::PolicyDecision, c.id(),
                   f, static_cast<std::uint8_t>(Layer::User),
                   c.everExecuted() ? 1 : 0, sim::toSeconds(ttl),
                   iat < 0 ? -1.0 : sim::toSeconds(iat));
    }
    return ttl;
}

policy::IdleDecision
RainbowCakePolicy::onIdleExpired(const container::Container& c)
{
    if (!_config.layerCaching)
        return policy::IdleDecision::kill();

    if (c.layer() == Layer::Bare)
        return policy::IdleDecision::kill(obs::KillCause::BareExpired);

    // Algorithm 2: peel the top layer and ask the recorder for the
    // next keep-alive window at the downgraded type — unless the
    // shared pool the container would join is already saturated, in
    // which case terminating is strictly cheaper.
    // The expiring container itself still sits at c.layer(), never at
    // `next`, so the platform's O(1) per-layer count needs no
    // self-exclusion.
    const Layer next = workload::layerBelow(c.layer());
    const std::size_t poolMates = _view->idleCountAtLayer(
        next, next == Layer::Lang ? c.language() : std::nullopt);
    if (poolMates >= _config.maxIdleSharedPerGroup)
        return policy::IdleDecision::kill(obs::KillCause::PoolSaturated);

    const workload::FunctionId f =
        c.function() != workload::kInvalidFunction ? c.function()
                                                   : c.initFunction();
    const sim::Tick ttl = currentTtl(f, next);
    if (_obs != nullptr) {
        const sim::Tick iat = predictedIat(f, next);
        _obs->emit(_view->now(), obs::EventType::PolicyDecision, c.id(),
                   f, static_cast<std::uint8_t>(next), 0,
                   sim::toSeconds(ttl),
                   iat < 0 ? -1.0 : sim::toSeconds(iat));
    }
    return policy::IdleDecision::downgrade(ttl);
}

} // namespace rc::core
