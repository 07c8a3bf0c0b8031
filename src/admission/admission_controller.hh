/**
 * @file
 * AdmissionController: the stateful half of rc::admission.
 *
 * One controller per worker node, installed into the Invoker the same
 * way a FaultInjector is (non-owning pointer; nullptr = no overload
 * control at all, the default). It owns:
 *
 *  * per-function token buckets (lazy refill — deterministic, no
 *    events, no randomness) for the arrival rate limit;
 *  * per-function in-flight execution counts for the concurrency cap;
 *  * the smoothed PressureSignal and the degradation-ladder level.
 *
 * The pressure signal mixes pool memory occupancy, admission-queue
 * fill, and the recent shed/reject rate (plus a bias while an
 * injected rc::fault overload window is open, so injected overload
 * shows up as pressure instead of bypassing the controller), smooths
 * it with an EWMA, and maps it onto four ladder levels:
 *
 *   level 0 (nominal)   full RainbowCake behaviour;
 *   level 1 (warn)      keep-alive TTLs shrink by ttlShrinkFactor —
 *                       idle layers decay sooner, memory drains;
 *   level 2 (high)      pre-warming stops, speculative pre-warms are
 *                       shed first under memory pressure, and the
 *                       policy caches decayed L2/L1 layers instead of
 *                       granting full-window L3 containers;
 *   level 3 (critical)  arrivals that cannot bind immediately are
 *                       shed (shed_pressure) instead of queued.
 *
 * Levels drop with hysteresis so the ladder does not flap around a
 * threshold. Everything here is pure arithmetic over simulated time:
 * admission-controlled runs stay bit-deterministic.
 */

#ifndef RC_ADMISSION_ADMISSION_CONTROLLER_HH_
#define RC_ADMISSION_ADMISSION_CONTROLLER_HH_

#include <cstdint>
#include <unordered_map>

#include "admission/admission_plan.hh"
#include "sim/time.hh"
#include "workload/types.hh"

namespace rc::admission {

/** Inputs of one pressure recomputation (see updatePressure). */
struct PressureSample
{
    /** Pool memory occupancy in [0, 1]. */
    double memoryOccupancy = 0.0;
    /** Admission-queue fill in [0, 1] (depth / bound-or-scale). */
    double queueFill = 0.0;
    /** True while an injected overload window is open. */
    bool overloadWindowOpen = false;
};

/** Per-node overload-control state machine. */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionPlan plan);

    const AdmissionPlan& plan() const { return _plan; }

    // ---- token-bucket rate limit ----------------------------------------

    /**
     * Charge one token for an arrival of @p f at @p now. False means
     * the bucket is empty and the arrival must be rejected. Buckets
     * refill lazily at functionRatePerSecond up to tokenBucketBurst.
     * Always true when the rate limit is disabled.
     */
    bool tryAdmit(workload::FunctionId f, sim::Tick now);

    // ---- concurrency cap -------------------------------------------------

    /** May another execution of @p f start right now? */
    bool mayDispatch(workload::FunctionId f) const;

    /** An execution of @p f started / finished (any outcome). */
    void onExecStart(workload::FunctionId f);
    void onExecFinish(workload::FunctionId f);

    /** Node crash: every tracked execution died with the pool. */
    void resetInFlight() { _inFlight.clear(); }

    // ---- pressure signal and ladder ---------------------------------------

    /**
     * Recompute the smoothed pressure and ladder level from @p sample
     * (called by the invoker's controller tick). Returns the new
     * level; pressureLevel()/smoothedPressure() expose it between
     * ticks.
     */
    int updatePressure(const PressureSample& sample, sim::Tick now);

    int pressureLevel() const { return effectiveLevel(); }
    double smoothedPressure() const { return _smoothed; }
    double lastRawPressure() const { return _lastRaw; }

    /** Ladder stage queries the invoker consults on its hot paths. */
    bool shrinkTtls() const { return effectiveLevel() >= 1; }
    bool prewarmsSuppressed() const { return effectiveLevel() >= 2; }
    bool shedInsteadOfQueue() const { return effectiveLevel() >= 3; }

    /**
     * Recovery backpressure: pin the ladder at least at @p level while
     * part of the fleet is down or warming (the cluster recovery
     * orchestrator sets this from the unavailable-node fraction, and
     * clears it back to 0 once the fleet is whole). The measured
     * signal still raises the level above the floor; the floor only
     * stops the survivors from speculating while they carry the
     * displaced load. 0 without an orchestrator, so admission-only
     * runs are untouched.
     */
    void setRecoveryFloor(int level) { _floor = level; }

    /**
     * Stage 1: shrink a keep-alive TTL by ttlShrinkFactor per ladder
     * level. Negative TTLs ("keep forever") and level 0 pass through
     * untouched.
     */
    sim::Tick degradeTtl(sim::Tick ttl) const;

    /**
     * A shed/reject happened; feeds the shed component of the next
     * raw pressure sample (the counter resets at each update).
     */
    void noteShedForPressure() { ++_shedsSinceUpdate; }

  private:
    /** Measured ladder level, clamped from below by the recovery floor. */
    int effectiveLevel() const
    {
        return _level > _floor ? _level : _floor;
    }

    /** Lazy-refill token bucket. */
    struct Bucket
    {
        double tokens = 0.0;
        sim::Tick lastRefill = 0;
    };

    AdmissionPlan _plan;
    std::unordered_map<workload::FunctionId, Bucket> _buckets;
    std::unordered_map<workload::FunctionId, std::uint32_t> _inFlight;

    double _smoothed = 0.0;
    double _lastRaw = 0.0;
    int _level = 0;
    int _floor = 0; //!< recovery floor (setRecoveryFloor)
    std::uint64_t _shedsSinceUpdate = 0;
};

} // namespace rc::admission

#endif // RC_ADMISSION_ADMISSION_CONTROLLER_HH_
