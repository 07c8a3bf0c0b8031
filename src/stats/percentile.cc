#include "stats/percentile.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace rc::stats {

double
quantileOf(std::vector<double> samples, double q)
{
    if (q < 0.0 || q > 1.0)
        throw std::invalid_argument("quantileOf: q outside [0,1]");
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
    if (lo == hi)
        return samples[lo];
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double
Percentile::mean() const
{
    if (_samples.empty())
        return 0.0;
    const double total =
        std::accumulate(_samples.begin(), _samples.end(), 0.0);
    return total / static_cast<double>(_samples.size());
}

} // namespace rc::stats
