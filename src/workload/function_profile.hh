/**
 * @file
 * Per-function cost profile: stage latencies, per-layer memory,
 * transition overheads, and execution-time distribution.
 *
 * These are the t(k) / m(k) quantities of §5.2. Values in the
 * standard catalog are calibrated to the breakdowns of Fig. 2 and
 * Fig. 14: environment setup is uniform and small; language-runtime
 * initialization dominates for Java; user-package loading varies with
 * the deployment (ML models are heavy); inter-transition overheads
 * are under 3% of total startup.
 */

#ifndef RC_WORKLOAD_FUNCTION_PROFILE_HH_
#define RC_WORKLOAD_FUNCTION_PROFILE_HH_

#include <string>

#include "sim/rng.hh"
#include "sim/time.hh"
#include "workload/types.hh"

namespace rc::workload {

/** Latency and memory of the three init stages of one function. */
struct StageCosts
{
    /** Stage #1 latency: environment setup (container proxy etc.). */
    sim::Tick bareInit = 0;
    /** Stage #2 latency: language runtime initialization. */
    sim::Tick langInit = 0;
    /** Stage #3 latency: user deployment package loading. */
    sim::Tick userInit = 0;

    /** Inter-transition overheads (Fig. 13/14): Bare-to-Lang. */
    sim::Tick bareToLang = 0;
    /** Lang-to-User transition overhead. */
    sim::Tick langToUser = 0;
    /** User-to-Run dispatch overhead. */
    sim::Tick userToRun = 0;

    /** Resident memory of an idle container at each layer (MB, total). */
    double bareMemoryMb = 0.0;
    double langMemoryMb = 0.0;
    double userMemoryMb = 0.0;
};

/** Complete static description of one deployed function. */
class FunctionProfile
{
  public:
    FunctionProfile() = default;
    FunctionProfile(FunctionId id, std::string shortName,
                    std::string fullName, Language language, Domain domain,
                    StageCosts costs, sim::Tick meanExecution,
                    double executionCv);

    FunctionId id() const { return _id; }
    const std::string& shortName() const { return _shortName; }
    const std::string& fullName() const { return _fullName; }
    Language language() const { return _language; }
    Domain domain() const { return _domain; }
    const StageCosts& costs() const { return _costs; }
    sim::Tick meanExecution() const { return _meanExecution; }
    double executionCv() const { return _executionCv; }

    /**
     * Latency of installing the stages above @p from up to @p to and
     * the transitions crossed on the way (0 unless @p to is above
     * @p from), without the final User-to-Run dispatch: the invoker
     * charges that at execution start, alike for every startup type.
     */
    sim::Tick installLatency(Layer from, Layer to) const;

    /** Latency from layer @p have to executing this function: the
     *  install up to User plus the final User-to-Run dispatch. */
    sim::Tick startupLatencyFrom(Layer have) const
    {
        return installLatency(have, Layer::User) + _costs.userToRun;
    }

    /** Full cold-start latency (from Layer::None). */
    sim::Tick coldStartLatency() const { return startupLatencyFrom(Layer::None); }

    /** Idle memory footprint at @p layer in MB (None is 0). */
    double memoryAtLayer(Layer layer) const;

    /**
     * Latency of installing exactly the @p layer stage (excluding
     * transitions); used for per-layer cost accounting in Eq. 6.
     */
    sim::Tick stageLatency(Layer layer) const;

    /** Sample an execution duration from the lognormal model. */
    sim::Tick sampleExecution(sim::Rng& rng) const;

    /** Validate invariants (monotone memory, positive latencies). */
    void validate() const;

  private:
    FunctionId _id = kInvalidFunction;
    std::string _shortName;
    std::string _fullName;
    Language _language = Language::NodeJs;
    Domain _domain = Domain::WebApp;
    StageCosts _costs;
    sim::Tick _meanExecution = 0;
    double _executionCv = 0.0;
};

} // namespace rc::workload

#endif // RC_WORKLOAD_FUNCTION_PROFILE_HH_
