/**
 * @file
 * Exact percentile tracking over a bounded sample set.
 *
 * Experiment runs produce at most a few hundred thousand invocation
 * records, so we keep exact samples and sort lazily; P99 numbers in
 * Fig. 7 are therefore exact rather than sketched.
 */

#ifndef RC_STATS_PERCENTILE_HH_
#define RC_STATS_PERCENTILE_HH_

#include <cstddef>
#include <vector>

namespace rc::stats {

/**
 * Exact quantile estimator.
 *
 * Thread-safety contract: quantile()/p99()/median() are genuinely
 * const — they never mutate the sample store, so concurrent reads of
 * one Percentile (e.g. report writers walking RunResults produced by
 * exp::ParallelRunner) are safe. The sort cache is opt-in and
 * explicit: call sortSamples() (non-const) once after the run to make
 * subsequent quantile reads O(1); otherwise each quantile call on an
 * unsorted store selects into a local copy.
 */
class Percentile
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Make room for @p n samples up front. */
    void reserve(std::size_t n) { _samples.reserve(n); }

    /** Number of samples. */
    std::size_t count() const { return _samples.size(); }

    /**
     * Quantile @p q in [0, 1] using linear interpolation between
     * closest ranks; 0 when empty. Never mutates (see class doc).
     */
    double quantile(double q) const;

    /** Convenience: 50th percentile. */
    double median() const { return quantile(0.5); }

    /** Convenience: 99th percentile (the paper's P99). */
    double p99() const { return quantile(0.99); }

    /** Mean of samples; 0 when empty. */
    double mean() const;

    /**
     * Explicit cache: sort the samples in place so later quantile
     * reads skip the per-call copy. Not thread-safe (mutator); call
     * it from the owning thread before sharing the object.
     */
    void sortSamples();

    /** True once the store is sorted (ascending). */
    bool sorted() const { return _sorted; }

    /** Clear all samples. */
    void reset();

    /**
     * Read-only view of the raw samples: insertion order until
     * sortSamples() is called, ascending after.
     */
    const std::vector<double>& samples() const { return _samples; }

  private:
    std::vector<double> _samples;
    bool _sorted = true;
};

} // namespace rc::stats

#endif // RC_STATS_PERCENTILE_HH_
