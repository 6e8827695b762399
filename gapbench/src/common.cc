#include "common.hh"
#include "workloads.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

#include "gm/support/timer.hh"

#include "gm/par/thread_pool.hh"
#include "gm/support/fingerprint.hh"

namespace gapbench
{

namespace
{

std::vector<MetricDecl>
make_per_layer()
{
    std::vector<MetricDecl> m = {
        {"graph.generate_s", "s", false},
        {"store.forms_s", "s", false},
        {"store.resident_mb", "MB", false},
        {"par.fork_join_us", "us", false},
        {"par.lease_us", "us", false},
        {"par.efficiency", "ratio", true},
        {"par.cells_slower_than_serial", "count", false},
    };
    // Kernel breakdown: one geomean per framework, kernel and graph, at
    // full width and under a width-1 lease.  The names are static
    // strings so MetricDecl can hold plain pointers.
    static const char* const kBreakdown[] = {
        "kernel.gap_ms",      "kernel.gap_serial_ms",
        "kernel.suitesparse_ms", "kernel.suitesparse_serial_ms",
        "kernel.galois_ms",   "kernel.galois_serial_ms",
        "kernel.nwgraph_ms",  "kernel.nwgraph_serial_ms",
        "kernel.graphit_ms",  "kernel.graphit_serial_ms",
        "kernel.gkc_ms",      "kernel.gkc_serial_ms",
        "kernel.bfs_ms",      "kernel.bfs_serial_ms",
        "kernel.sssp_ms",     "kernel.sssp_serial_ms",
        "kernel.cc_ms",       "kernel.cc_serial_ms",
        "kernel.pr_ms",       "kernel.pr_serial_ms",
        "kernel.bc_ms",       "kernel.bc_serial_ms",
        "kernel.tc_ms",       "kernel.tc_serial_ms",
        "kernel.road_ms",     "kernel.road_serial_ms",
        "kernel.twitter_ms",  "kernel.twitter_serial_ms",
        "kernel.web_ms",      "kernel.web_serial_ms",
        "kernel.kron_ms",     "kernel.kron_serial_ms",
        "kernel.urand_ms",    "kernel.urand_serial_ms",
    };
    for (const char* name : kBreakdown)
        m.push_back({name, "ms", false});
    const std::vector<MetricDecl> rest = {
        {"kernel.iterations", "count", false},
        {"kernel.pr_iterations", "count", false},
        {"kernel.edges_traversed", "count", false},
        {"serve.submit_p50_us", "us", false},
        {"serve.queue_wait_p50_ms", "ms", false},
        {"serve.queue_wait_p99_ms", "ms", false},
        {"serve.lane_wait_p99_ms", "ms", false},
        {"serve.execute_p50_ms", "ms", false},
        {"serve.execute_p99_ms", "ms", false},
        {"serve.cache_hit_ratio", "ratio", true},
        {"serve.single_flight_joins", "count", true},
        {"serve.lanes_per_execution", "lanes", true},
        {"serve.wide_efficiency", "ratio", true},
        {"serve.shed", "count", false},
        {"serve.failed", "count", false},
        {"dyn.mutate_p50_ms", "ms", false},
        {"dyn.mutate_p99_ms", "ms", false},
        {"dyn.quiesce_p50_ms", "ms", false},
        {"dyn.quiesce_p99_ms", "ms", false},
        {"dyn.compactions", "count", false},
        {"dyn.incremental_share", "ratio", true},
        {"dyn.dirty_fraction", "ratio", false},
        {"plan.execute_p50_ms", "ms", false},
        {"plan.node_cache_hit_ratio", "ratio", true},
        {"plan.sources_per_sweep", "count", true},
        {"plan.shared_nodes", "count", true},
        {"trace.overhead_pct", "%", false},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/** Full-precision decimal: the result carries every measured digit. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

const MetricDecl*
find_decl(const std::vector<MetricDecl>& decls, const std::string& name)
{
    for (const MetricDecl& d : decls)
        if (name == d.name)
            return &d;
    return nullptr;
}

} // namespace

const std::vector<MetricDecl>&
end_to_end_metrics()
{
    static const std::vector<MetricDecl> m = {
        {"setup_s", "s", false},
        {"main_per_s", "1/s", true},
        {"main_p50_ms", "ms", false},
        {"main_p99_ms", "ms", false},
        {"main_geomean_ms", "ms", false},
        {"side_p50_ms", "ms", false},
        {"side_p95_ms", "ms", false},
        {"side_geomean_ms", "ms", false},
    };
    return m;
}

const std::vector<MetricDecl>&
per_layer_metrics()
{
    static const std::vector<MetricDecl> m = make_per_layer();
    return m;
}

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> w = {"gap_suite", "serve_read",
                                               "serve_write"};
    return w;
}

void
Report::set(const std::string& name, double value)
{
    // A percentile reaching a failed operation's infinite latency stays a
    // (huge) JSON number; such a run already fails its checks.
    values_[name] = std::isfinite(value)
                        ? value
                        : std::numeric_limits<double>::max();
}

bool
Report::has(const std::string& name) const
{
    return values_.count(name) != 0;
}

double
Report::get(const std::string& name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
Report::note(const std::string& line)
{
    notes_.push_back(line);
}

void
Report::check_failed(const std::string& what)
{
    ++check_failures;
    notes_.push_back("CHECK FAILED: " + what);
}

bool
Report::emit(std::ostream& out, bool per_layer) const
{
    for (const std::string& line : notes_)
        out << line << "\n";
    out << "attempted " << attempted << "  failed " << failed
        << "  answers checked " << checks << "  check failures "
        << check_failures << "  op-sequence hash " << std::hex
        << std::setw(16) << std::setfill('0') << op_hash << std::dec
        << std::setfill(' ') << "\n";

    bool complete = true;
    const auto& decls = per_layer ? per_layer_metrics() : end_to_end_metrics();
    for (const MetricDecl& d : decls) {
        if (!has(d.name)) {
            out << "metric never set: " << d.name << "\n";
            complete = false;
        }
    }
    // Every value any layer produced, by name with its unit (the JSON
    // result below carries only the requested kind).
    for (const auto& [name, value] : values_) {
        const MetricDecl* d = find_decl(end_to_end_metrics(), name);
        if (d == nullptr)
            d = find_decl(per_layer_metrics(), name);
        out << "  " << std::left << std::setw(34) << name << std::right
            << std::setw(16) << number(value) << " "
            << (d != nullptr ? d->unit : "") << "\n";
    }

    std::ostringstream json;
    json << "{\"correct\": " << (correct() && complete ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": "
         << (failed + check_failures) << ", \"metrics\": {";
    bool first = true;
    for (const MetricDecl& d : decls) {
        json << (first ? "" : ", ") << "\"" << d.name
             << "\": {\"value\": " << number(get(d.name))
             << ", \"unit\": \"" << d.unit << "\"}";
        first = false;
    }
    json << "}}";
    out << json.str() << std::endl;
    return complete;
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    // SplitMix64 finalizer over a combined word: cheap, well mixed, and
    // stable across platforms.
    std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
window_median(const std::vector<Stamped>& samples, double window_s,
              double run_s, double (*stat)(const std::vector<double>&))
{
    const auto windows =
        std::max<std::size_t>(1, static_cast<std::size_t>(run_s / window_s));
    std::vector<std::vector<double>> bins(windows);
    for (const Stamped& s : samples) {
        const auto w = static_cast<std::size_t>(std::max(0.0, s.at) /
                                                window_s);
        if (w < windows)
            bins[w].push_back(s.value);
        else if (windows == 1)
            bins[0].push_back(s.value);
    }
    std::vector<double> per_window;
    for (const auto& bin : bins)
        per_window.push_back(stat(bin));
    return median(per_window);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(std::max(x, 1e-12));
    return std::exp(log_sum / static_cast<double>(v.size()));
}

std::string
fingerprint_json(const std::string& workload)
{
    gm::support::EnvFingerprint fp = gm::support::collect_fingerprint();
    fp.scales = "workload=" + workload;
    std::string json = gm::support::fingerprint_json(fp);
    // Pool lanes are not part of EnvFingerprint; append them so results
    // taken under different GM_THREADS are never compared.
    json.pop_back();
    json += ",\"pool_lanes\":" +
            std::to_string(gm::par::ThreadPool::instance().num_threads()) +
            "}";
    return json;
}

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
probe_par(Report& report, Tracer& tracer)
{
    auto& pool = gm::par::ThreadPool::instance();
    constexpr int kReps = 2000;
    std::vector<double> fork_us, lease_us;
    fork_us.reserve(kReps);
    lease_us.reserve(kReps);
    Tracer::Scope span(tracer, "par.probe", 0);
    for (int i = 0; i < kReps; ++i) {
        const std::int64_t t0 = gm::Timer::now_ns();
        pool.run([](int) {});
        const std::int64_t t1 = gm::Timer::now_ns();
        {
            gm::par::LaneLease lease(pool.num_threads());
        }
        const std::int64_t t2 = gm::Timer::now_ns();
        fork_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        lease_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
    report.set("par.fork_join_us", median(fork_us));
    report.set("par.lease_us", median(lease_us));
}

void
warm_forms(const gm::harness::DatasetSuite& suite)
{
    for (const auto& ds : suite.datasets) {
        ds->g();
        ds->wg();
        ds->g_undirected();
        ds->grb();
        ds->grb_weighted();
    }
}

gm::harness::DatasetSuite
make_suite(int scale, std::uint64_t seed)
{
    constexpr int kSources = 16;
    gm::harness::DatasetSuite suite =
        gm::harness::make_gap_suite(scale, kSources);
    for (std::size_t g = 0; g < suite.size(); ++g) {
        gm::harness::Dataset& ds = *suite.datasets[g];
        const auto& graph = ds.g();
        const auto n = static_cast<std::uint64_t>(graph.num_vertices());
        std::vector<gm::vid_t> picked;
        for (std::uint64_t k = 0;
             picked.size() < kSources && k < 64 * n; ++k) {
            const auto v =
                static_cast<gm::vid_t>(mix(mix(seed, g), k) % n);
            if (graph.out_degree(v) > 0 &&
                std::find(picked.begin(), picked.end(), v) == picked.end())
                picked.push_back(v);
        }
        if (picked.size() == kSources)
            ds.sources = std::move(picked);
    }
    return suite;
}

std::string
token(const std::string& name)
{
    std::string t;
    for (char c : name)
        t += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return t;
}

} // namespace gapbench
