/**
 * @file
 * gap_suite: the paper's experiment.  Every Baseline cell (framework x
 * kernel x graph) runs one verified trial per round through
 * harness::run_cell at full pool width and one under a width-1
 * par::LaneLease, the two interleaved cell by cell (which one goes first
 * alternates) so host drift lands on both passes alike.  Rounds repeat
 * until the measurement time is spent; every cell's figure is the median
 * of its trials.  The width-1 pass is the COST-style serial reference: it
 * bypasses par's fork/join, so par changes move only the full-width
 * figures.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "workloads.hh"

#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/par/thread_pool.hh"

namespace gapbench
{

namespace
{

using gm::harness::Kernel;

struct Cell
{
    std::size_t framework = 0;
    Kernel kernel = Kernel::kBFS;
    std::size_t graph = 0;

    std::vector<double> wide_ms;
    std::vector<double> serial_ms;
    /** Wide-pass trials split by whether their slot was traced (for
     *  trace.overhead_pct). */
    std::vector<double> traced_ms;
    std::vector<double> untraced_ms;
    double efficiency = 0; ///< last wide trial's parallel efficiency
    gm::obs::TrialMetrics serial_metrics; ///< first serial trial
    bool have_serial_metrics = false;
};

/** A cell's figure: the median of its trials, the lower middle one for
 *  an even count, so with two trials a single disturbed one is dropped. */
double
cell_figure(std::vector<double> trials_ms)
{
    if (trials_ms.empty())
        return 0;
    std::sort(trials_ms.begin(), trials_ms.end());
    return trials_ms[(trials_ms.size() - 1) / 2];
}

/** One verified trial; false (with a note) when the cell did not
 *  complete or failed verification. */
bool
trial(const gm::harness::Dataset& ds, const gm::harness::Framework& fw,
      Kernel kernel, const gm::harness::RunOptions& ro, Report& report,
      gm::harness::CellResult& out)
{
    out = gm::harness::run_cell(ds, fw, kernel,
                                gm::harness::Mode::kBaseline, ro);
    const bool ok = out.completed() && out.verified &&
                    out.trial_seconds.size() == 1;
    report.attempt(ok);
    ++report.checks;
    if (!ok) {
        report.note("FAILED: " + fw.name + " " +
                    gm::harness::to_string(kernel) + " on " + ds.name +
                    ": " +
                    (out.failure_message.empty()
                         ? gm::harness::to_string(out.failure)
                         : out.failure_message));
    }
    return ok;
}

} // namespace

void
run_gap_suite(const Options& opt, Report& report, Tracer& tracer)
{
    const int pool = gm::par::ThreadPool::instance().num_threads();

    // Set-up: generate the five graphs and build their derived forms,
    // several times; the last suite is the one measured.
    std::vector<double> setup_s, generate_s, forms_s;
    gm::harness::DatasetSuite suite;
    for (int r = 0; r < opt.setup_repeats; ++r) {
        suite = {};
        Tracer::Scope span(tracer, "bench.setup", 0);
        const double t0 = now_seconds();
        {
            Tracer::Scope g(tracer, "graph.generate", 0);
            suite = make_suite(opt.suite_scale, opt.seed);
        }
        const double t1 = now_seconds();
        {
            Tracer::Scope f(tracer, "store.forms", 0);
            warm_forms(suite);
        }
        const double t2 = now_seconds();
        generate_s.push_back(t1 - t0);
        forms_s.push_back(t2 - t1);
        setup_s.push_back(t2 - t0);
    }
    report.set("setup_s", median(setup_s));
    report.set("graph.generate_s", median(generate_s));
    report.set("store.forms_s", median(forms_s));
    report.set("store.resident_mb",
               static_cast<double>(suite.bytes_resident()) / (1 << 20));

    const std::vector<gm::harness::Framework> frameworks =
        gm::harness::make_frameworks();
    std::vector<Cell> cells;
    for (std::size_t g = 0; g < suite.size(); ++g)
        for (std::size_t f = 0; f < frameworks.size(); ++f)
            for (Kernel k : gm::harness::kAllKernels)
                cells.push_back(Cell{f, k, g, {}, {}, {}, {}, 0, {}, false});

    // The operation sequence: cell order plus each graph's content and
    // benchmark sources (all functions of the seed).
    std::uint64_t h = mix(0x67617073756974ULL, cells.size());
    for (const Cell& c : cells)
        h = mix(h, c.framework * 64 + static_cast<int>(c.kernel) * 8 +
                       c.graph);
    for (std::size_t g = 0; g < suite.size(); ++g) {
        h = mix(h, suite[g].store()->fingerprint());
        for (gm::vid_t s : suite[g].sources)
            h = mix(h, static_cast<std::uint64_t>(s));
    }
    report.op_hash = h;

    gm::harness::RunOptions ro;
    ro.trials = 1;
    ro.warmup = 0;
    ro.verify = true;
    ro.verify_first_trial_only = false;
    ro.max_attempts = 1; // a retried trial would hide a failure

    Tracer untraced(false);
    int lane_mismatches = 0;
    std::size_t wide_trials = 0;
    const double start = now_seconds();
    const double deadline = start + opt.seconds;
    bool done = false;
    for (std::uint64_t round = 0; !done; ++round) {
        // Rotate sources as GAP trials do: run_cell's single trial takes
        // sources[0] (BFS, SSSP) or sources[0..3] (BC), so round r uses
        // the seeded sources 4r..4r+3.
        if (round > 0)
            for (const auto& ds : suite.datasets)
                std::rotate(ds->sources.begin(), ds->sources.begin() + 4,
                            ds->sources.end());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            // Every cell gets at least one trial per width; after the
            // first round the clock decides.
            if (round > 0 && now_seconds() >= deadline) {
                done = true;
                break;
            }
            Cell& cell = cells[i];
            const auto& ds = suite[cell.graph];
            const auto& fw = frameworks[cell.framework];
            const bool traced = opt.trace && (round + i) % 2 == 0;
            Tracer& t = traced ? tracer : untraced;
            const std::uint64_t request = (round << 16) | i;
            Tracer::Scope op(t, "bench.cell", request);
            for (int leg = 0; leg < 2; ++leg) {
                const bool serial = ((round + i + leg) % 2) == 1;
                gm::harness::CellResult result;
                bool ok = false;
                if (serial) {
                    gm::par::LaneLease lease(1);
                    Tracer::Scope s(t, "harness.run_cell_serial", request);
                    ok = trial(ds, fw, cell.kernel, ro, report, result);
                } else {
                    Tracer::Scope s(t, "harness.run_cell", request);
                    ok = trial(ds, fw, cell.kernel, ro, report, result);
                }
                if (!ok)
                    continue;
                const double ms = result.trial_seconds[0] * 1e3;
                // Under a width-1 lease the parallel primitives run inline
                // and never reach ThreadPool::run, so TrialMetrics.lanes
                // reads 0 there (no fork observed); 1 would mean a
                // width-1 fork.  Either proves the pass is serial.
                if (serial ? result.metrics.lanes > 1
                           : result.metrics.lanes != pool)
                    ++lane_mismatches;
                if (serial) {
                    cell.serial_ms.push_back(ms);
                    if (!cell.have_serial_metrics) {
                        cell.serial_metrics = result.metrics;
                        cell.have_serial_metrics = true;
                    }
                } else {
                    ++wide_trials;
                    cell.wide_ms.push_back(ms);
                    (traced ? cell.traced_ms : cell.untraced_ms)
                        .push_back(ms);
                    cell.efficiency = result.metrics.parallel_efficiency;
                }
            }
        }
        if (now_seconds() >= deadline)
            done = true;
    }
    const double elapsed = now_seconds() - start;

    // End-to-end: main = full-width trials, side = width-1 trials.
    std::vector<double> wide_figs, serial_figs, efficiency, overhead_ratio;
    int slower = 0;
    std::uint64_t iterations = 0, pr_iterations = 0, edges = 0;
    std::size_t min_trials = SIZE_MAX;
    for (const Cell& c : cells) {
        min_trials = std::min(min_trials, c.wide_ms.size());
        if (c.wide_ms.empty() || c.serial_ms.empty())
            continue;
        const double w = cell_figure(c.wide_ms);
        const double s = cell_figure(c.serial_ms);
        wide_figs.push_back(w);
        serial_figs.push_back(s);
        slower += w > s ? 1 : 0;
        efficiency.push_back(c.efficiency);
        if (!c.traced_ms.empty() && !c.untraced_ms.empty())
            overhead_ratio.push_back(median(c.traced_ms) /
                                     median(c.untraced_ms));
        const auto& m = c.serial_metrics;
        iterations += m.counter_or("iterations");
        edges += m.counter_or("edges_traversed");
        if (c.kernel == Kernel::kPR)
            pr_iterations += m.counter_or("iterations");
    }
    report.set("main_per_s", static_cast<double>(wide_trials) / elapsed);
    // Percentiles run over the cell figures, not the pooled trials, so a
    // single disturbed trial cannot move them.
    report.set("main_p50_ms", median(wide_figs));
    report.set("main_p99_ms", percentile(wide_figs, 99));
    report.set("main_geomean_ms", geomean(wide_figs));
    report.set("side_p50_ms", median(serial_figs));
    report.set("side_p95_ms", percentile(serial_figs, 95));
    report.set("side_geomean_ms", geomean(serial_figs));

    // Per-layer: kernel breakdown by framework, kernel and graph.
    auto breakdown = [&](const std::string& key, auto&& member) {
        std::vector<double> wide, serial;
        for (const Cell& c : cells) {
            if (!member(c) || c.wide_ms.empty() || c.serial_ms.empty())
                continue;
            wide.push_back(cell_figure(c.wide_ms));
            serial.push_back(cell_figure(c.serial_ms));
        }
        report.set("kernel." + key + "_ms", geomean(wide));
        report.set("kernel." + key + "_serial_ms", geomean(serial));
    };
    for (std::size_t f = 0; f < frameworks.size(); ++f)
        breakdown(token(frameworks[f].name),
                  [f](const Cell& c) { return c.framework == f; });
    for (Kernel k : gm::harness::kAllKernels)
        breakdown(token(gm::harness::to_string(k)),
                  [k](const Cell& c) { return c.kernel == k; });
    for (std::size_t g = 0; g < suite.size(); ++g)
        breakdown(token(suite[g].name),
                  [g](const Cell& c) { return c.graph == g; });
    report.set("kernel.iterations", static_cast<double>(iterations));
    report.set("kernel.pr_iterations", static_cast<double>(pr_iterations));
    report.set("kernel.edges_traversed", static_cast<double>(edges));
    report.set("par.efficiency", median(efficiency));
    report.set("par.cells_slower_than_serial", slower);
    report.set("trace.overhead_pct",
               overhead_ratio.empty()
                   ? 0.0
                   : (geomean(overhead_ratio) - 1.0) * 100.0);

    // Layers this workload bypasses.
    for (const MetricDecl& d : per_layer_metrics()) {
        const std::string name = d.name;
        if (name.rfind("serve.", 0) == 0 || name.rfind("dyn.", 0) == 0 ||
            name.rfind("plan.", 0) == 0)
            report.set(name, 0);
    }

    char line[160];
    std::snprintf(line, sizeof line,
                  "gap_suite: scale %d, %zu cells, >= %zu verified trials "
                  "per cell and width, %.1f s measured",
                  opt.suite_scale, cells.size(),
                  min_trials == SIZE_MAX ? 0 : min_trials, elapsed);
    report.note(line);
    report.note("lanes check: " + std::to_string(lane_mismatches) +
                " trial(s) with TrialMetrics.lanes off the expected width "
                "(<= 1 serial, " + std::to_string(pool) + " wide)");
}

} // namespace gapbench
