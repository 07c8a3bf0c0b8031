/**
 * @file
 * One replay of one benchmark workload, reported as one JSON line.
 *
 *   perfbench --workload NAME --seed N [--traced]
 *
 * perfbench/run.py runs this once per replay, so every replay gets a
 * fresh process and its own peak RSS. Exit status: 0 when the replay
 * passed its correctness gate, 3 when it did not (the record is still
 * printed), 2 on a usage error.
 */

#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hh"

namespace {

void
usage()
{
    std::cerr << "usage: perfbench --workload NAME --seed N [--traced]\n"
                 "workloads:";
    for (const auto& spec : perfbench::workloads())
        std::cerr << ' ' << spec.name;
    std::cerr << '\n';
}

std::string
number(double value)
{
    char out[40];
    std::snprintf(out, sizeof out, "%.17g", value);
    return out;
}

/** Names are fixed identifiers; escape the two characters JSON needs. */
std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace

int
main(int argc, char** argv)
{
    std::string name;
    std::string seedText;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--traced") {
            traced = true;
        } else if (arg == "--workload" && i + 1 < argc) {
            name = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            seedText = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    const perfbench::WorkloadSpec* spec = perfbench::findWorkload(name);
    char* end = nullptr;
    errno = 0;
    const unsigned long long seed = std::strtoull(seedText.c_str(), &end, 10);
    if (spec == nullptr || seedText.empty() || seedText[0] == '-' ||
        *end != '\0' || errno == ERANGE) {
        usage();
        return 2;
    }

    const perfbench::Replay r = perfbench::replay(*spec, seed, traced);

    std::ostringstream out;
    out << "{\"workload\":" << quoted(spec->name) << ",\"seed\":" << seed
        << ",\"traced\":" << (traced ? "true" : "false")
        << ",\"digest\":" << quoted(r.digest) << ",\"gate_errors\":[";
    for (std::size_t i = 0; i < r.gateErrors.size(); ++i)
        out << (i ? "," : "") << quoted(r.gateErrors[i]);
    out << "],\"arrivals\":" << r.arrivals << ",\"completed\":" << r.completed
        << ",\"setup_s\":" << number(r.setupSeconds)
        << ",\"run_s\":" << number(r.runSeconds)
        << ",\"peak_rss_mb\":" << number(peakRssMb())
        << ",\"sim_mean_startup_s\":" << number(r.simMeanStartupSeconds)
        << ",\"sim_cold_ratio\":" << number(r.simColdRatio)
        << ",\"sim_waste_gbs\":" << number(r.simWasteGbSeconds)
        << ",\"sim_e2e_p99_s\":" << number(r.simE2eP99Seconds)
        << ",\"layers\":{";
    for (std::size_t i = 0; i < r.layers.size(); ++i) {
        out << (i ? "," : "") << quoted(r.layers[i].first) << ':'
            << number(r.layers[i].second);
    }
    out << "},\"spans\":[";
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const perfbench::Span& s = r.spans[i];
        out << (i ? "," : "") << "{\"name\":" << quoted(s.name)
            << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << '}';
    }
    out << "]}";
    std::cout << out.str() << std::endl;
    return r.gateErrors.empty() ? 0 : 3;
}
