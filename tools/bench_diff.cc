/**
 * @file
 * bench_diff — compare two benchmark snapshots and print regressions.
 *
 * Both inputs are BENCH_*.json files, either the shared flat schema
 * `[{bench, metric, value, unit, threads}, ...]` as written by
 * bench/bench_record.hh for bench_micro_engine, bench_micro_pool,
 * bench_recovery_storm, bench_scale_fleet and bench_tail_tolerance,
 * or the `rainbowcake-bench-overload-v1`
 * object schema bench_overload writes ({schema, rows: [...]}); rows
 * are flattened into one record per (row, numeric field) so the two
 * shapes diff identically. The tool joins records on (bench, metric,
 * threads) and reports every pair whose value moved against that
 * metric's "good" direction by more than the tolerance.
 *
 *   bench_diff OLD.json NEW.json [--tolerance PCT] [--fail-on-regression]
 *
 * Higher is better for throughput-style metrics (events/sec,
 * speedups, hit rates); lower is better for time- and cost-style
 * metrics (wall seconds, us/invocation). The direction is inferred
 * from the unit/metric name; unknown metrics default to
 * higher-is-better. Exit status is 1 under --fail-on-regression when
 * any regression exceeds the tolerance (default 10%).
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hh"

namespace {

struct Record
{
    std::string bench;
    std::string metric;
    double value = 0.0;
    std::string unit;
    long threads = 1;
};

using Key = std::tuple<std::string, std::string, long>;

bool
loadSnapshot(const std::string& path, std::map<Key, Record>& out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "bench_diff: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    rc::obs::JsonValue root;
    std::string error;
    if (!rc::obs::parseJson(buffer.str(), root, &error)) {
        std::cerr << "bench_diff: " << path << ": " << error << "\n";
        return false;
    }
    // bench_overload writes an object: {schema:
    // "rainbowcake-bench-overload-v1", rows: [{policy, admission,
    // load, p99_e2e_seconds, ...}]}. Flatten each row's numeric
    // fields into flat-schema records keyed by a synthetic bench name
    // so both snapshot shapes join the same way.
    if (root.isObject() &&
        root.stringAt("schema") == "rainbowcake-bench-overload-v1") {
        const rc::obs::JsonValue* rows = root.find("rows");
        if (!rows || !rows->isArray()) {
            std::cerr << "bench_diff: " << path
                      << ": overload snapshot lacks a rows array\n";
            return false;
        }
        for (const auto& row : rows->array) {
            if (!row.isObject())
                continue;
            const rc::obs::JsonValue* admissionField =
                row.find("admission");
            const bool admission =
                admissionField &&
                (admissionField->kind ==
                         rc::obs::JsonValue::Kind::Bool
                     ? admissionField->boolean
                     : admissionField->number != 0.0);
            std::ostringstream bench;
            bench << "overload/" << row.stringAt("policy", "<unnamed>")
                  << (admission ? "+admission" : "") << "@"
                  << row.numberAt("load") << "x";
            for (const auto& [name, field] : row.object) {
                if (field.kind != rc::obs::JsonValue::Kind::Number ||
                    name == "load")
                    continue;
                Record record;
                record.bench = bench.str();
                record.metric = name;
                record.value = field.number;
                if (name.find("seconds") != std::string::npos)
                    record.unit = "seconds";
                out[{record.bench, record.metric, record.threads}] =
                    record;
            }
        }
        return true;
    }
    if (!root.isArray()) {
        std::cerr << "bench_diff: " << path
                  << ": expected a top-level array or an overload "
                     "snapshot object\n";
        return false;
    }
    for (const auto& entry : root.array) {
        if (!entry.isObject())
            continue;
        Record record;
        record.bench = entry.stringAt("bench");
        record.metric = entry.stringAt("metric");
        record.value = entry.numberAt("value");
        record.unit = entry.stringAt("unit");
        record.threads = static_cast<long>(entry.numberAt("threads", 1));
        out[{record.bench, record.metric, record.threads}] = record;
    }
    return true;
}

/** True when a smaller value of this metric is an improvement. */
bool
lowerIsBetter(const Record& record)
{
    // Recovery latency first: time_to_goodput is a time even though
    // it names goodput.
    if (record.metric.find("time_to") != std::string::npos)
        return true;
    // Throughput-style names win over the substring scan below:
    // "goodput_per_second" must stay higher-is-better even though its
    // unit mentions seconds.
    for (const char* needle : {"goodput", "completed", "throughput"}) {
        if (record.metric.find(needle) != std::string::npos)
            return false;
    }
    for (const char* needle :
         {"seconds", "us_per", "us/", "ns/", "wall", "latency",
          "cold", "p99", "p999", "time_to", "queue", "wasted",
          "shed", "rejected", "stranded"}) {
        if (record.metric.find(needle) != std::string::npos ||
            record.unit.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> paths;
    double tolerancePct = 10.0;
    bool failOnRegression = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            tolerancePct = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--fail-on-regression") == 0) {
            failOnRegression = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::cout << "bench_diff OLD.json NEW.json "
                         "[--tolerance PCT] [--fail-on-regression]\n";
            return 0;
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.size() != 2) {
        std::cerr << "bench_diff: need exactly two snapshot paths\n";
        return 2;
    }

    std::map<Key, Record> before;
    std::map<Key, Record> after;
    if (!loadSnapshot(paths[0], before) ||
        !loadSnapshot(paths[1], after))
        return 2;

    std::size_t compared = 0;
    std::size_t regressions = 0;
    for (const auto& [key, newRecord] : after) {
        const auto it = before.find(key);
        if (it == before.end()) {
            std::cout << "NEW        " << newRecord.bench << " :: "
                      << newRecord.metric << " = " << newRecord.value
                      << " " << newRecord.unit << "\n";
            continue;
        }
        ++compared;
        const Record& oldRecord = it->second;
        if (oldRecord.value == 0.0)
            continue;
        const double deltaPct =
            (newRecord.value - oldRecord.value) / oldRecord.value *
            100.0;
        const bool worse = lowerIsBetter(newRecord) ? deltaPct > 0.0
                                                    : deltaPct < 0.0;
        const char* tag = "ok        ";
        if (worse && (deltaPct > tolerancePct ||
                      deltaPct < -tolerancePct)) {
            tag = "REGRESSION";
            ++regressions;
        } else if (worse) {
            tag = "worse     ";
        }
        std::cout << tag << " " << newRecord.bench << " :: "
                  << newRecord.metric << " " << oldRecord.value
                  << " -> " << newRecord.value << " " << newRecord.unit
                  << " (" << (deltaPct >= 0.0 ? "+" : "") << deltaPct
                  << "%)\n";
    }
    for (const auto& [key, oldRecord] : before) {
        if (after.find(key) == after.end()) {
            std::cout << "GONE       " << oldRecord.bench << " :: "
                      << oldRecord.metric << "\n";
        }
    }
    std::cout << compared << " metrics compared, " << regressions
              << " regression(s) beyond " << tolerancePct << "%\n";
    return failOnRegression && regressions > 0 ? 1 : 0;
}
