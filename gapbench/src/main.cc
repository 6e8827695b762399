/**
 * @file
 * gapbench: the repository benchmark.
 *
 *   gapbench --workload <gap_suite|serve_read|serve_write> --seed <n>
 *            --seconds <s> --trace <0|1>
 *
 * Prints the host fingerprint, notes, every metric with its unit, and as
 * the last line one JSON object {"correct","attempted","failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
 * with --trace 1.  A traced run also writes a Chrome trace of its spans
 * to .bench_out/ and prints the per-layer self-time table.  Exit status
 * is 0 only when every answer check passed.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

int
usage(const char* why)
{
    std::cerr << "gapbench: " << why
              << "\nusage: gapbench --workload <gap_suite|serve_read|"
                 "serve_write> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
}

bool
parse_int(const char* text, long long lo, long long hi, long long& out)
{
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    gapbench::Options opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        long long v = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed" && parse_int(value, 0, INT64_MAX, v)) {
            opt.seed = static_cast<std::uint64_t>(v);
        } else if (flag == "--seconds" && parse_int(value, 1, 3600, v)) {
            opt.seconds = static_cast<double>(v);
        } else if (flag == "--trace" && parse_int(value, 0, 1, v)) {
            opt.trace = v == 1;
            have_trace = true;
        } else {
            return usage(("bad argument " + flag + " " + value).c_str());
        }
    }
    if (!have_trace)
        return usage("--trace is required");

    gapbench::Report report;
    const std::string fingerprint = gapbench::fingerprint_json(opt.workload);
    std::cout << "fingerprint " << fingerprint << std::endl;

    gapbench::Tracer tracer(opt.trace);
    if (opt.workload == "gap_suite")
        gapbench::run_gap_suite(opt, report, tracer);
    else if (opt.workload == "serve_read")
        gapbench::run_serve(opt, /*writes=*/false, report, tracer);
    else if (opt.workload == "serve_write")
        gapbench::run_serve(opt, /*writes=*/true, report, tracer);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    if (opt.trace) {
        gapbench::probe_par(report, tracer);
        // Relative to the working directory: the checkout being measured.
        const std::string dir = ".bench_out";
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        const std::string path = dir + "/trace_" + opt.workload + "_" +
                                 std::to_string(opt.seed) + ".json";
        const std::string error = tracer.write(path, fingerprint);
        if (!error.empty())
            report.check_failed("trace file: " + error);
        else
            report.note("trace written to " + path);
        std::int64_t total = 0;
        const auto self = tracer.self_times();
        for (const auto& [layer, ns] : self)
            total += ns;
        report.note("self time by layer (traced slots only):");
        for (const auto& [layer, ns] : self) {
            char line[128];
            std::snprintf(line, sizeof line, "  %-10s %12.3f ms  %5.1f%%",
                          layer.c_str(), static_cast<double>(ns) / 1e6,
                          total > 0 ? 100.0 * static_cast<double>(ns) /
                                          static_cast<double>(total)
                                    : 0.0);
            report.note(line);
        }
    }

    if (!opt.trace) {
        // The workload-specific names of the end-to-end figures.
        const bool suite = opt.workload == "gap_suite";
        const bool reads = opt.workload == "serve_read";
        const std::vector<std::pair<const char*, const char*>> aliases =
            suite ? std::vector<std::pair<const char*, const char*>>{
                        {"suite_geomean_ms", "main_geomean_ms"},
                        {"suite_serial_geomean_ms", "side_geomean_ms"}}
                  : std::vector<std::pair<const char*, const char*>>{
                        {"read_rps", "main_per_s"},
                        {"read_p50_ms", "main_p50_ms"},
                        {"read_p99_ms", "main_p99_ms"},
                        {reads ? "plan_p50_ms" : "write_p50_ms",
                         "side_p50_ms"},
                        {reads ? "plan_p95_ms" : "write_p95_ms",
                         "side_p95_ms"}};
        for (const auto& [alias, name] : aliases) {
            const char* unit = "";
            for (const auto& d : gapbench::end_to_end_metrics())
                if (std::string(d.name) == name)
                    unit = d.unit;
            char line[128];
            std::snprintf(line, sizeof line, "%-24s %14.6g %s  (= %s)",
                          alias, report.get(name), unit, name);
            report.note(line);
        }
    }

    const bool complete = report.emit(std::cout, opt.trace);
    return complete && report.correct() ? 0 : 1;
}
