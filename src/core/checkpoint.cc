#include "core/checkpoint.hh"

#include "sim/logging.hh"

namespace rc::core {

CheckpointPolicy::CheckpointPolicy(std::unique_ptr<policy::Policy> base,
                                   CheckpointConfig config)
    : PolicyDecorator(std::move(base)), _config(config)
{
    if (config.restoreFactor <= 0.0 || config.restoreFactor > 1.0)
        sim::fatal("CheckpointPolicy: restore factor outside (0,1]");
    if (config.imageMemoryFraction < 0.0)
        sim::fatal("CheckpointPolicy: negative image memory fraction");
}

std::string
CheckpointPolicy::name() const
{
    return base().name() + " + checkpoint";
}

double
CheckpointPolicy::partialStartLatencyFactor() const
{
    // Partial starts restore the missing layers from checkpoint
    // images instead of re-initializing them, so the restore speedup
    // applies to them as well as to full cold starts.
    return _config.restoreFactor * base().partialStartLatencyFactor();
}

double
CheckpointPolicy::coldStartFactor() const
{
    return _config.restoreFactor * base().coldStartFactor();
}

double
CheckpointPolicy::auxiliaryMemoryMb(
    const workload::FunctionProfile& p) const
{
    return _config.imageMemoryFraction * p.memoryAtLayer(
               workload::Layer::User) + base().auxiliaryMemoryMb(p);
}

} // namespace rc::core
