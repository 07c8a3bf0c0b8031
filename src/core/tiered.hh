/**
 * @file
 * Tiered caching (§8, "RainbowCake with tiered caching").
 *
 * The paper sketches placing different layers in different cache
 * tiers: frequently-hit or heavy layers stay in DRAM, while the
 * lighter shareable layers (Lang/Bare) can be parked in cheaper
 * non-volatile memory (NVM). The model here captures the two effects
 * that matter for the trade-off:
 *
 *   * hits on NVM-resident layers pay an extra fetch latency before
 *     the remaining initialization can start;
 *   * NVM residency is cheaper, so Lang/Bare idle time is charged at
 *     a fraction of its DRAM cost.
 *
 * TieredCachePolicy is a policy::PolicyDecorator like
 * CheckpointPolicy: every decision stays with the wrapped policy and
 * it only injects the NVM fetch penalty; pricedWasteMbSeconds()
 * reprices a run's waste log under the tiered cost model.
 */

#ifndef RC_CORE_TIERED_HH_
#define RC_CORE_TIERED_HH_

#include <memory>

#include "policy/decorator.hh"
#include "stats/interval_log.hh"

namespace rc::core {

/** Knobs of the tiered-cache model. */
struct TieredConfig
{
    /** Fetch latency added to every partial (Lang/Bare) start. */
    sim::Tick nvmFetchLatency = 30 * sim::kMillisecond;
    /** NVM residency cost relative to DRAM (0 < factor <= 1). */
    double nvmCostFactor = 0.2;
};

/** Decorator adding NVM placement of shareable layers. */
class TieredCachePolicy : public policy::PolicyDecorator
{
  public:
    TieredCachePolicy(std::unique_ptr<policy::Policy> base,
                      TieredConfig config = {});

    std::string name() const override;
    sim::Tick partialStartLatencyBias() const override;

    const TieredConfig& config() const { return _config; }

  private:
    TieredConfig _config;
};

/**
 * Reprice a run's waste under the tiered model: User-layer intervals
 * stay at DRAM cost, Lang/Bare intervals are charged at
 * @p config.nvmCostFactor of their MB*s.
 */
double pricedWasteMbSeconds(const stats::IntervalLog& waste,
                            const TieredConfig& config);

} // namespace rc::core

#endif // RC_CORE_TIERED_HH_
