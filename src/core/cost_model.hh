/**
 * @file
 * Unified cost model (§4.2, Eqs. 1, 5, 6).
 *
 * The unified cost is C = alpha * C_startup + (1 - alpha) * C_memory
 * with a knob alpha in (0, 1). The keep-alive bound beta(k) of Eq. 6
 * caps how long a type-k container may stay idle by requiring its
 * idle memory cost not to exceed the startup latency it would save:
 *
 *     beta(k) = alpha * t(k) / ((1 - alpha) * m(k)).
 *
 * Unit calibration: unifiedCost() takes C_startup in seconds and
 * C_memory in MB*s. The beta bound counts m(k) in units of
 * CostConfig::betaMemoryUnitMb (160 MB by default) instead: one
 * unit-second of idle residency is worth one second of startup
 * latency. That lands the per-layer TTL upper bounds in the minutes
 * range the paper's keep-alive windows occupy (at alpha = 0.996,
 * ~5.5 min for IR-Py's 412 MB user layer and ~9 min for its 11 MB
 * Bare container). The two exchange rates differ: at alpha = 0.996
 * unifiedCost()'s memory term dwarfs its startup term rather than
 * matching it.
 */

#ifndef RC_CORE_COST_MODEL_HH_
#define RC_CORE_COST_MODEL_HH_

#include "sim/time.hh"
#include "workload/function_profile.hh"

namespace rc::core {

/** Cost-model parameters. */
struct CostConfig
{
    /** Knob alpha in (0,1); paper default 0.996 (Fig. 11a). */
    double alpha = 0.996;

    /**
     * Memory unit of m(k) in the beta bound, in MB. The paper leaves
     * Eq. 6's units implicit; this constant is the latency-vs-
     * residency exchange rate (seconds of startup latency that one
     * unit-second of idle memory is worth). The default is calibrated
     * so that per-layer TTL upper bounds land in the paper's
     * minutes range while total memory waste stays below every
     * baseline (§7.2 shapes).
     */
    double betaMemoryUnitMb = 160.0;
};

/** The Eq. 6 bound and Eq. 1 aggregation. */
class CostModel
{
  public:
    explicit CostModel(CostConfig config = {});

    double alpha() const { return _config.alpha; }

    /**
     * beta(k) for layer @p layer of @p profile: the maximum time the
     * layer may sit idle before its memory cost exceeds the startup
     * latency it saves. t(k) is the layer's stage-install latency;
     * m(k) the idle footprint at that layer.
     */
    sim::Tick beta(const workload::FunctionProfile& profile,
                   workload::Layer layer) const;

    /**
     * beta from raw stage latency and footprint; used for shared
     * layers whose t/m are averaged across the functions that can
     * hit them (Eq. 5).
     */
    sim::Tick betaFromRaw(double tSeconds, double mMb) const;

    /**
     * Eq. 7: keep-alive TTL = min(predicted IAT, beta(k)).
     * @param iat Predicted inter-arrival time; negative means "no
     *            estimate", in which case beta alone bounds the TTL.
     */
    sim::Tick ttl(const workload::FunctionProfile& profile,
                  workload::Layer layer, sim::Tick iat) const;

    /**
     * Eq. 1: unified cost from total startup latency (seconds) and
     * total memory waste (MB*s).
     */
    double unifiedCost(double startupSeconds, double wasteMbSeconds) const;

  private:
    CostConfig _config;
};

} // namespace rc::core

#endif // RC_CORE_COST_MODEL_HH_
