/** End-to-end tests of the gm::obs profile pipeline through the runner:
 *  per-trial metrics, the metrics JSONL stream, Chrome trace export, and
 *  checkpoint v2 (metrics blob + v1 backward compatibility). */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gm/graph/generators.hh"
#include "gm/harness/checkpoint.hh"
#include "gm/harness/dataset.hh"
#include "gm/harness/framework.hh"
#include "gm/harness/runner.hh"
#include "gm/obs/metrics.hh"
#include "gm/support/json.hh"

namespace gm
{
namespace
{

harness::Dataset
tiny_dataset()
{
    return harness::make_dataset(
        "tiny", graph::make_uniform(8, 8, 21), /*num_sources=*/8,
        /*seed=*/9);
}

/** Read a file fully into a byte string. */
std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ------------------------------------------------------- runner metrics

TEST(ProfilePipeline, RunCellCollectsWorkloadMetrics)
{
    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.trials = 2;
    opts.verify = true;
    // Verify every trial so the last trial's metrics carry a verify span.
    opts.verify_first_trial_only = false;

    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kBFS, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(cell.completed());
    const obs::TrialMetrics& m = cell.metrics;
    ASSERT_FALSE(m.empty());

    // The BFS kernel counted its steps and the store reported its peak.
    EXPECT_GT(m.counter_or("iterations"), 0u);
    EXPECT_GT(m.counter_or("frontier_peak"), 0u);
    EXPECT_GT(m.peak_bytes, 0u);

    // Span breakdown: warm_forms, kernel, and verify all fired, and the
    // trial wall covers the sum of its top-level child spans.
    ASSERT_NE(m.span_seconds.find("kernel"), m.span_seconds.end());
    ASSERT_NE(m.span_seconds.find("warm_forms"), m.span_seconds.end());
    ASSERT_NE(m.span_seconds.find("verify"), m.span_seconds.end());
    double child_sum = 0;
    for (const char* name : {"warm_forms", "kernel", "verify"})
        child_sum += m.span_seconds.at(name);
    EXPECT_GE(m.wall_seconds, child_sum);
}

TEST(ProfilePipeline, GaussSeidelPageRankCountersAgreeAcrossFrameworks)
{
    // Galois, NWGraph and GKC share one Gauss–Seidel PR sweep, so their
    // PR cells must count the same work.
    const harness::Dataset ds = tiny_dataset();
    harness::RunOptions opts;
    opts.trials = 1;
    opts.verify = false;
    std::vector<obs::TrialMetrics> metrics;
    for (const auto& fw : harness::make_frameworks()) {
        if (fw.name != "Galois" && fw.name != "NWGraph" && fw.name != "GKC")
            continue;
        const harness::CellResult cell = harness::run_cell(
            ds, fw, harness::Kernel::kPR, harness::Mode::kBaseline, opts);
        ASSERT_TRUE(cell.completed()) << fw.name;
        metrics.push_back(cell.metrics);
    }
    ASSERT_EQ(metrics.size(), 3u);
    const std::uint64_t iterations = metrics[0].counter_or("iterations");
    EXPECT_GT(iterations, 0u);
    EXPECT_EQ(metrics[0].counter_or("edges_traversed"),
              iterations * static_cast<std::uint64_t>(
                                ds.g().num_edges_directed()));
    for (const obs::TrialMetrics& m : metrics) {
        EXPECT_EQ(m.counter_or("iterations"), iterations);
        EXPECT_EQ(m.counter_or("edges_traversed"),
                  metrics[0].counter_or("edges_traversed"));
    }
}

TEST(ProfilePipeline, MetricsDisabledLeavesCellEmpty)
{
    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.trials = 1;
    opts.verify = false;
    opts.collect_metrics = false;

    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kPR, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(cell.completed());
    EXPECT_TRUE(cell.metrics.empty());
}

TEST(ProfilePipeline, MetricsJsonlStreamRoundTrips)
{
    const std::string path = "/tmp/gm_profile_metrics.jsonl";
    std::remove(path.c_str());

    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.trials = 2;
    opts.verify = false;
    opts.metrics_path = path;

    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kBFS, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(cell.completed());

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    int records = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto rec = obs::parse_metrics_record_line(line);
        ASSERT_TRUE(rec.is_ok()) << rec.status().to_string() << ": "
                                 << line;
        EXPECT_EQ(rec->mode, "Baseline");
        EXPECT_EQ(rec->framework, fw.name);
        EXPECT_EQ(rec->kernel, "BFS");
        EXPECT_EQ(rec->graph, "tiny");
        EXPECT_EQ(rec->trial, records);
        EXPECT_GE(rec->attempt, 1);
        EXPECT_GT(rec->metrics.wall_seconds, 0.0);
        ++records;
    }
    // One JSONL record per completed trial.
    EXPECT_EQ(records, 2);
    std::remove(path.c_str());
}

TEST(ProfilePipeline, TraceOutWritesValidChromeTracePerCell)
{
    const std::string dir = "/tmp/gm_profile_traces";
    std::filesystem::remove_all(dir);

    const harness::Dataset ds = tiny_dataset();
    const auto fw = harness::make_frameworks()[harness::kGapIndex];
    harness::RunOptions opts;
    opts.trials = 1;
    opts.verify = false;
    opts.trace_dir = dir;

    const harness::CellResult cell = harness::run_cell(
        ds, fw, harness::Kernel::kBFS, harness::Mode::kBaseline, opts);
    ASSERT_TRUE(cell.completed());

    const std::string path =
        dir + "/Baseline_" + fw.name + "_BFS_tiny.json";
    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty()) << "missing trace file " << path;
    EXPECT_TRUE(support::json_validate(json).is_ok());
    EXPECT_NE(json.find("\"kernel\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- checkpoint v2

harness::CheckpointRecord
sample_v2_record()
{
    harness::CheckpointRecord rec;
    rec.mode = "baseline";
    rec.framework = "GAP";
    rec.kernel = "bfs";
    rec.graph = "web";
    rec.cell.best_seconds = 0.25;
    rec.cell.avg_seconds = 0.5;
    rec.cell.trials = 2;
    rec.cell.attempts = 3;
    rec.cell.verified = true;
    rec.cell.metrics.wall_seconds = 0.6;
    rec.cell.metrics.counters["iterations"] = 11;
    rec.cell.metrics.counters["edges_traversed"] = 4242;
    rec.cell.metrics.maxima["frontier_peak"] = 512;
    rec.cell.metrics.span_seconds["kernel"] = 0.5;
    rec.cell.metrics.lanes = 4;
    rec.cell.metrics.parallel_efficiency = 0.75;
    rec.cell.metrics.peak_bytes = 1 << 20;
    return rec;
}

TEST(CheckpointV2, MetricsBlobRoundTrips)
{
    const harness::CheckpointRecord rec = sample_v2_record();
    const std::string line = harness::checkpoint_line(rec);
    EXPECT_TRUE(support::json_validate(line).is_ok()) << line;
    EXPECT_NE(line.find("\"v\":3"), std::string::npos);
    EXPECT_NE(line.find("\"metrics\":{"), std::string::npos);

    const auto parsed = harness::parse_checkpoint_line(line);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    const obs::TrialMetrics& m = parsed->cell.metrics;
    EXPECT_DOUBLE_EQ(m.wall_seconds, 0.6);
    EXPECT_EQ(m.counter_or("iterations"), 11u);
    EXPECT_EQ(m.counter_or("edges_traversed"), 4242u);
    EXPECT_EQ(m.counter_or("frontier_peak"), 512u);
    EXPECT_EQ(m.lanes, 4);
    EXPECT_DOUBLE_EQ(m.parallel_efficiency, 0.75);
    EXPECT_EQ(m.peak_bytes, static_cast<std::uint64_t>(1 << 20));
}

TEST(CheckpointV2, EmptyMetricsOmitsBlob)
{
    harness::CheckpointRecord rec = sample_v2_record();
    rec.cell.metrics = obs::TrialMetrics{};
    const std::string line = harness::checkpoint_line(rec);
    EXPECT_EQ(line.find("\"metrics\""), std::string::npos);
    const auto parsed = harness::parse_checkpoint_line(line);
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_TRUE(parsed->cell.metrics.empty());
}

/** A pre-v2 line, exactly as the previous checkpoint writer emitted it. */
std::string
v1_line()
{
    return "{\"mode\":\"Baseline\",\"framework\":\"GAP\","
           "\"kernel\":\"BFS\",\"graph\":\"tiny\","
           "\"best_seconds\":0.125,\"avg_seconds\":0.25,"
           "\"trials\":2,\"attempts\":2,\"verified\":true,"
           "\"supported\":true,\"failure\":\"none\","
           "\"failure_message\":\"\"}";
}

TEST(CheckpointV2, ParsesV1LinesWithoutMetrics)
{
    const auto parsed = harness::parse_checkpoint_line(v1_line());
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed->mode, "Baseline");
    EXPECT_EQ(parsed->kernel, "BFS");
    EXPECT_DOUBLE_EQ(parsed->cell.best_seconds, 0.125);
    EXPECT_EQ(parsed->cell.trials, 2);
    EXPECT_TRUE(parsed->cell.verified);
    EXPECT_TRUE(parsed->cell.metrics.empty());
}

TEST(CheckpointV2, ResumesFromV1File)
{
    const std::string path = "/tmp/gm_profile_v1_resume.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << v1_line() << "\n";
    }

    harness::DatasetSuite suite;
    suite.datasets.push_back(
        std::make_shared<harness::Dataset>(tiny_dataset()));
    const std::vector<harness::Framework> frameworks = {
        harness::make_frameworks()[harness::kGapIndex]};

    harness::RunOptions opts;
    opts.trials = 1;
    opts.verify = false;
    opts.resume_path = path;
    const harness::ResultsCube cube = harness::run_suite(
        suite, frameworks, harness::Mode::kBaseline, opts);

    // The v1 cell was restored verbatim (its timing is the file's, and it
    // carries no metrics); every other kernel ran fresh with metrics.
    const auto& restored = cube.at(0, harness::Kernel::kBFS, 0);
    EXPECT_DOUBLE_EQ(restored.best_seconds, 0.125);
    EXPECT_EQ(restored.trials, 2);
    EXPECT_TRUE(restored.metrics.empty());
    const auto& fresh = cube.at(0, harness::Kernel::kPR, 0);
    EXPECT_EQ(fresh.trials, 1);
    EXPECT_FALSE(fresh.metrics.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace gm
