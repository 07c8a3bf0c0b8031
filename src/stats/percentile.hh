/**
 * @file
 * Exact percentile tracking over a bounded sample set.
 *
 * Experiment runs produce at most a few hundred thousand invocation
 * records, so we keep exact samples and sort them when a quantile is
 * read; P99 numbers in Fig. 7 are therefore exact rather than
 * sketched.
 */

#ifndef RC_STATS_PERCENTILE_HH_
#define RC_STATS_PERCENTILE_HH_

#include <cstddef>
#include <vector>

namespace rc::stats {

/**
 * Quantile @p q in [0, 1] of @p samples (any order) using linear
 * interpolation between closest ranks; 0 when empty. Takes the
 * samples by value and sorts them in place, so a caller that builds
 * a throwaway vector can move it in.
 */
double quantileOf(std::vector<double> samples, double q);

/**
 * Exact quantile estimator. quantile() is genuinely const: it sorts
 * a copy of the samples, so concurrent reads of one Percentile (e.g.
 * report writers walking RunResults produced by exp::ParallelRunner)
 * are safe.
 */
class Percentile
{
  public:
    /** Add one sample. */
    void add(double x) { _samples.push_back(x); }

    /** Make room for @p n samples up front. */
    void reserve(std::size_t n) { _samples.reserve(n); }

    /** Number of samples. */
    std::size_t count() const { return _samples.size(); }

    /** Quantile @p q in [0, 1] (see quantileOf); 0 when empty. */
    double quantile(double q) const { return quantileOf(_samples, q); }

    /** Convenience: 50th percentile. */
    double median() const { return quantile(0.5); }

    /** Convenience: 99th percentile (the paper's P99). */
    double p99() const { return quantile(0.99); }

    /** Mean of samples; 0 when empty. */
    double mean() const;

    /** Clear all samples. */
    void reset() { _samples.clear(); }

  private:
    std::vector<double> _samples;
};

} // namespace rc::stats

#endif // RC_STATS_PERCENTILE_HH_
