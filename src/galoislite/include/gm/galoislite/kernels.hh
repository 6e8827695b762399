/**
 * @file
 * Galois-style kernels in the operator formulation.
 *
 * Each problem offers the variants the paper describes (Table III and
 * Section V): a bulk-synchronous variant and an asynchronous worklist
 * variant for the traversal kernels, Afforest (plus an edge-blocked
 * variant) for CC, Gauss–Seidel PageRank, and the GAP triangle-counting
 * algorithm with work-stealing load balance.
 *
 * The run-time heuristic the paper credits to Galois — sample the degree
 * distribution, assume low diameter for power-law graphs, and pick the
 * bulk-synchronous vs asynchronous variant accordingly — lives in
 * pick_async_by_sampling().
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gm/graph/csr.hh"

namespace gm::galoislite
{

using graph::CSRGraph;
using graph::WCSRGraph;

/** Baseline-mode heuristic: async pays off when the sampled degree
 *  distribution is NOT power-law (high-diameter assumption). */
bool pick_async_by_sampling(const CSRGraph& graph);

/** Bulk-synchronous direction-optimizing BFS. */
std::vector<vid_t> bfs_sync(const CSRGraph& graph, vid_t source);

/** Asynchronous BFS: chaotic depth relaxation on a concurrent worklist. */
std::vector<vid_t> bfs_async(const CSRGraph& graph, vid_t source);

/** Bulk-synchronous delta-stepping (no bucket fusion — the optimization
 *  GAP has and Galois lacks, per the paper). */
std::vector<weight_t> sssp_sync(const WCSRGraph& graph, vid_t source,
                                weight_t delta);

/** Asynchronous delta-stepping: lanes drain their own current-bucket work
 *  without bounding the drain, trading redundant work for fewer barriers. */
std::vector<weight_t> sssp_async(const WCSRGraph& graph, vid_t source,
                                 weight_t delta);

/** Afforest connected components. */
std::vector<vid_t> cc_afforest(const CSRGraph& graph);

/** Afforest with edge blocking (better load balance; the paper's choice
 *  for Web in the Optimized data set). */
std::vector<vid_t> cc_afforest_edge_blocked(const CSRGraph& graph);

/** Blocked Gauss–Seidel PageRank (graph::blocked_gauss_seidel_pagerank);
 *  converges in fewer rounds than the GAP reference's Jacobi iteration. */
std::vector<score_t> pagerank_gauss_seidel(const CSRGraph& graph,
                                           double damping = 0.85,
                                           double tolerance = 1e-4,
                                           int max_iters = 100);

/** Bulk-synchronous Brandes BC (no successor bitmap — recomputes the
 *  depth test on the backward pass, which is why GAP wins here). */
std::vector<score_t> bc_sync(const CSRGraph& graph,
                             const std::vector<vid_t>& sources);

/** Source-parallel Brandes: processes the roots concurrently, increasing
 *  available parallelism on high-diameter graphs. */
std::vector<score_t> bc_async(const CSRGraph& graph,
                              const std::vector<vid_t>& sources);

/** GAP-style order-invariant triangle counting with dynamic chunk
 *  scheduling (work stealing). */
std::uint64_t tc(const CSRGraph& graph);

} // namespace gm::galoislite
