/**
 * @file
 * Shared pieces of the gapbench program: command-line options, the metric
 * report every workload fills, the metric name tables that BENCHMARK.json
 * mirrors, sample statistics, and the seeded hashing that makes every
 * generated input a pure function of the workload seed.
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gapbench
{

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** log2 vertices per graph of the gap_suite workload: the largest
     *  scale at which a 40-second run still gives every cell several
     *  verified trials per width on a 4-core host. */
    int suite_scale = 13;
    /** log2 vertices per graph of the serving workloads. */
    int serve_scale = 12;
    /** Set-ups per run; setup_s is their median. */
    int setup_repeats = 9;
};

/** One metric's declaration: name, unit, direction. */
struct MetricDecl
{
    const char* name;
    const char* unit;
    bool higher_is_better;
};

/** Metrics emitted with --trace 0, identical for every workload. */
const std::vector<MetricDecl>& end_to_end_metrics();

/** Metrics emitted with --trace 1, identical for every workload. */
const std::vector<MetricDecl>& per_layer_metrics();

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workload_names();

/**
 * What one run measured.  Workloads set metrics by name; emit() checks
 * that every declared metric of the requested kind was set, so a name
 * missing from a workload is a benchmark bug, never a silent omission.
 */
class Report
{
  public:
    void set(const std::string& name, double value);
    bool has(const std::string& name) const;
    double get(const std::string& name) const;

    /** Human-readable line printed before the result (workload-specific
     *  aliases, breakdown tables, fingerprint). */
    void note(const std::string& line);

    /** Count one attempted operation; @p ok false also counts a failure. */
    void
    attempt(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** Record a failed answer check (also fails the run). */
    void check_failed(const std::string& what);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t checks = 0;       ///< answers checked
    std::uint64_t check_failures = 0;
    std::uint64_t op_hash = 0;      ///< hash of the seeded op sequence

    bool correct() const { return failed == 0 && check_failures == 0; }

    /** Print notes, the metric table, then the one-line JSON result
     *  (end-to-end metrics, or per-layer ones when @p per_layer).
     *  Returns false when a declared metric was never set. */
    bool emit(std::ostream& out, bool per_layer) const;

  private:
    std::map<std::string, double> values_;
    std::vector<std::string> notes_;
};

/** Order-sensitive 64-bit mixer (SplitMix64 finalizer) for seeded
 *  streams and sequence hashes. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/** Median / percentile (0..100, nearest-rank on sorted samples) /
 *  geometric mean; 0 for an empty sample. */
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);
double geomean(const std::vector<double>& v);

/** A sample stamped with its completion time (seconds from the start
 *  of the measurement). */
struct Stamped
{
    double at = 0;
    double value = 0;
};

/**
 * Median over consecutive windows of @p window_s seconds of
 * @p stat(window's values); a trailing partial window is dropped unless
 * it is the only one.  Host disturbances shorter than half the run then
 * cannot move the figure.
 */
double window_median(const std::vector<Stamped>& samples, double window_s,
                     double run_s,
                     double (*stat)(const std::vector<double>&));

/** Host fingerprint line (git sha, compiler, build, host, nproc, pool
 *  lanes) from gm::support, as a flat JSON object. */
std::string fingerprint_json(const std::string& workload);

/** Seconds on the steady clock. */
double now_seconds();

} // namespace gapbench
