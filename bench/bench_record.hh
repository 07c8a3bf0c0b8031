/**
 * @file
 * The trajectory record every performance bench writes.
 *
 * bench_micro_engine, bench_micro_pool, bench_recovery_storm,
 * bench_scale_fleet and bench_tail_tolerance each print their records
 * and write them as one JSON array of
 * `{bench, metric, value, unit, threads}` objects: the
 * `bench/trajectory/BENCH_*.json` schema that tools/bench_diff reads.
 */

#ifndef RC_BENCH_BENCH_RECORD_HH_
#define RC_BENCH_BENCH_RECORD_HH_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

namespace rc::bench {

struct BenchRecord
{
    std::string bench;
    std::string metric;
    double value;
    std::string unit;
    std::size_t threads;
};

/** Append @p record to @p records and print it on stdout. */
inline void
report(std::vector<BenchRecord>& records, const BenchRecord& record)
{
    records.push_back(record);
    std::cout << record.bench << " :: " << record.metric << " = "
              << record.value << " " << record.unit << " (threads="
              << record.threads << ")\n";
}

/** Write @p records to @p path as a JSON array. */
inline void
writeJson(const std::string& path, const std::vector<BenchRecord>& records)
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        out << "  {\"bench\": \"" << r.bench << "\", \"metric\": \""
            << r.metric << "\", \"value\": " << r.value
            << ", \"unit\": \"" << r.unit << "\", \"threads\": "
            << r.threads << "}" << (i + 1 < records.size() ? "," : "")
            << "\n";
    }
    out << "]\n";
}

/** Wall-clock seconds of one call of @p fn. */
inline double
secondsOf(const std::function<void()>& fn)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Best-of-reps wall-clock: robust against scheduler noise. */
inline double
bestSeconds(int reps, const std::function<void()>& fn)
{
    double best = secondsOf(fn);
    for (int i = 1; i < reps; ++i)
        best = std::min(best, secondsOf(fn));
    return best;
}

} // namespace rc::bench

#endif // RC_BENCH_BENCH_RECORD_HH_
