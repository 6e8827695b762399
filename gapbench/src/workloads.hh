/**
 * @file
 * The three gapbench workloads.  Each sets up its inputs from the seed,
 * measures for Options::seconds, checks every answer it can afford to
 * (outside the timed region), and fills the Report with every end-to-end
 * and per-layer metric; a layer a workload bypasses reports 0.
 */
#pragma once

#include "common.hh"
#include "trace.hh"

#include "gm/harness/dataset.hh"

namespace gapbench
{

/** 6 frameworks x 6 kernels x 5 graphs, Baseline mode, every trial
 *  verified by harness::run_cell, each cell at full pool width and under
 *  a width-1 lane lease. */
void run_gap_suite(const Options& opt, Report& report, Tracer& tracer);

/** Closed-loop serving through gm::serve::Server.  @p writes selects
 *  serve_write (width-1 reads plus mutate batches) over serve_read
 *  (reads at mixed width plus plans). */
void run_serve(const Options& opt, bool writes, Report& report,
               Tracer& tracer);

/** par.fork_join_us and par.lease_us: medians of timed empty forks at
 *  full width and of LaneLease(pool lanes) acquire+release. */
void probe_par(Report& report, Tracer& tracer);

/** Build every derived form the suite's kernels use (untimed by GAP,
 *  counted in set-up). */
void warm_forms(const gm::harness::DatasetSuite& suite);

/**
 * The benchmark graphs: the GAP suite's five graph classes from the
 * suite's own fixed generator seed (as GAP fixes its input graphs), with
 * each graph's benchmark sources then drawn from the workload seed: 16
 * distinct non-isolated vertices per graph.
 */
gm::harness::DatasetSuite make_suite(int scale, std::uint64_t seed);

/** Lower-case metric token of a framework / graph display name. */
std::string token(const std::string& name);

} // namespace gapbench
