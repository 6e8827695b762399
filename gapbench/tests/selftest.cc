/**
 * @file
 * gapbench's own checks, at tiny scales:
 *
 *  - the serial pass is serial: under a width-1 LaneLease every Baseline
 *    cell runs with TrialMetrics.lanes <= 1 (0 when no primitive forked:
 *    width-1 loops run inline without reaching ThreadPool::run), and at
 *    full width with TrialMetrics.lanes == the pool's lane count;
 *  - the same seed gives the same operation-sequence hash on every
 *    workload, and another seed gives another;
 *  - every metric is emitted by name with its unit in both result kinds,
 *    and the names, units and directions match BENCHMARK.json.
 *
 *   gapbench_selftest <path/to/BENCHMARK.json>
 *
 * Exit status 0 when every check passes.
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hh"
#include "trace.hh"
#include "workloads.hh"

#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/par/thread_pool.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

void
check_lanes()
{
    const int pool = gm::par::ThreadPool::instance().num_threads();
    const gm::harness::DatasetSuite suite = gapbench::make_suite(8, 1);
    gm::harness::RunOptions ro;
    ro.trials = 1;
    ro.verify_first_trial_only = false;
    ro.max_attempts = 1;
    int cells = 0;
    for (const auto& fw : gm::harness::make_frameworks()) {
        for (gm::harness::Kernel k : gm::harness::kAllKernels) {
            for (const auto& ds : suite.datasets) {
                const std::string cell = fw.name + " " +
                                         gm::harness::to_string(k) + " " +
                                         ds->name;
                const auto wide = gm::harness::run_cell(
                    *ds, fw, k, gm::harness::Mode::kBaseline, ro);
                expect(wide.completed() && wide.verified,
                       cell + " wide: verified");
                expect(wide.metrics.lanes == pool,
                       cell + " wide: lanes " +
                           std::to_string(wide.metrics.lanes) + " != " +
                           std::to_string(pool));
                gm::par::LaneLease lease(1);
                expect(gm::par::ThreadPool::current_width() == 1,
                       cell + ": width-1 lease is not serial");
                const auto serial = gm::harness::run_cell(
                    *ds, fw, k, gm::harness::Mode::kBaseline, ro);
                expect(serial.completed() && serial.verified,
                       cell + " serial: verified");
                expect(serial.metrics.lanes <= 1,
                       cell + " serial: lanes " +
                           std::to_string(serial.metrics.lanes) + " > 1");
                ++cells;
            }
        }
    }
    expect(cells == 180, "expected 180 cells, ran " + std::to_string(cells));
}

gapbench::Report
run(const std::string& workload, std::uint64_t seed, bool trace)
{
    gapbench::Options opt;
    opt.workload = workload;
    opt.seed = seed;
    opt.seconds = 1;
    opt.trace = trace;
    opt.suite_scale = 8;
    opt.serve_scale = 8;
    opt.setup_repeats = 1;
    gapbench::Report report;
    gapbench::Tracer tracer(trace);
    if (workload == "gap_suite")
        gapbench::run_gap_suite(opt, report, tracer);
    else
        gapbench::run_serve(opt, workload == "serve_write", report, tracer);
    if (trace)
        gapbench::probe_par(report, tracer);
    return report;
}

/** The result line's metrics must be exactly @p decls, with units. */
void
check_emitted(const gapbench::Report& report, bool per_layer,
              const std::string& what)
{
    std::ostringstream out;
    expect(report.emit(out, per_layer), what + ": a metric was never set");
    std::string last;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);)
        if (!line.empty())
            last = line;
    const auto& decls = per_layer ? gapbench::per_layer_metrics()
                                  : gapbench::end_to_end_metrics();
    for (const auto& d : decls) {
        std::string entry = "\"";
        entry += d.name;
        entry += "\": {\"value\": ";
        const auto at = last.find(entry);
        expect(at != std::string::npos, what + ": " + d.name + " missing");
        if (at == std::string::npos)
            continue;
        const std::string unit = "\"unit\": \"" + std::string(d.unit) + "\"";
        expect(last.find(unit, at) == last.find("\"unit\"", at),
               what + ": " + d.name + " has the wrong unit");
    }
    expect(report.correct(), what + ": answers failed their checks");
}

void
check_benchmark_json(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    expect(!json.empty(), "cannot read " + path);
    std::size_t declared = 0;
    for (const auto* decls : {&gapbench::end_to_end_metrics(),
                              &gapbench::per_layer_metrics()}) {
        for (const auto& d : *decls) {
            const std::string entry =
                "\"name\": \"" + std::string(d.name) + "\", \"unit\": \"" +
                d.unit + "\", \"better\": \"" +
                (d.higher_is_better ? "higher" : "lower") + "\"";
            expect(json.find(entry) != std::string::npos,
                   "BENCHMARK.json lacks " + entry);
            ++declared;
        }
    }
    std::size_t names = 0;
    for (std::size_t at = json.find("\"name\":"); at != std::string::npos;
         at = json.find("\"name\":", at + 1))
        ++names;
    expect(names == declared + gapbench::workload_names().size(),
           "BENCHMARK.json declares names the benchmark does not emit");
    for (const std::string& w : gapbench::workload_names())
        expect(json.find("\"name\": \"" + w + "\"") != std::string::npos,
               "BENCHMARK.json lacks workload " + w);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::cerr << "usage: gapbench_selftest <BENCHMARK.json>\n";
        return 2;
    }
    check_benchmark_json(argv[1]);
    check_lanes();
    for (const std::string& w : gapbench::workload_names()) {
        const gapbench::Report a = run(w, 7, false);
        const gapbench::Report b = run(w, 7, true);
        const gapbench::Report c = run(w, 8, false);
        expect(a.op_hash == b.op_hash, w + ": same seed, different ops");
        expect(a.op_hash != c.op_hash, w + ": new seed, same ops");
        check_emitted(a, false, w + " end-to-end");
        check_emitted(b, true, w + " per-layer");
    }
    std::cout << (failures == 0 ? "selftest: all checks passed\n"
                                : "selftest: FAILED\n");
    return failures == 0 ? 0 : 1;
}
