/**
 * @file
 * Checkpoint/restore integration (§7.8).
 *
 * The paper demonstrates RainbowCake composing with an orthogonal
 * technique: Docker/CRIU checkpointing. Containers are restored from
 * checkpoint files instead of initializing from scratch, cutting
 * startup latency (-36% average in the paper) at the cost of caching
 * checkpoint images in memory (+15% memory waste).
 *
 * CheckpointPolicy is a transparent decorator over any base policy
 * (policy::PolicyDecorator forwards every decision to it) that only
 * scales cold and partial start latency by the restore factor and
 * charges per-container auxiliary (checkpoint image) memory.
 */

#ifndef RC_CORE_CHECKPOINT_HH_
#define RC_CORE_CHECKPOINT_HH_

#include <memory>

#include "policy/decorator.hh"

namespace rc::core {

/** Knobs of the checkpoint integration. */
struct CheckpointConfig
{
    /** Cold-init latency multiplier when restoring (restore speed). */
    double restoreFactor = 0.55;
    /** Checkpoint image size as a fraction of the user footprint. */
    double imageMemoryFraction = 0.12;
};

/** Decorator adding checkpoint/restore to any policy. */
class CheckpointPolicy : public policy::PolicyDecorator
{
  public:
    CheckpointPolicy(std::unique_ptr<policy::Policy> base,
                     CheckpointConfig config = {});

    std::string name() const override;
    double partialStartLatencyFactor() const override;
    double coldStartFactor() const override;
    double
    auxiliaryMemoryMb(const workload::FunctionProfile& p) const override;

  private:
    CheckpointConfig _config;
};

} // namespace rc::core

#endif // RC_CORE_CHECKPOINT_HH_
