/**
 * @file
 * The blocked Gauss–Seidel PageRank sweep shared by every framework
 * analogue whose PR is Gauss–Seidel (Galois, NWGraph, GKC, and the GAP
 * reference's ablation variant).  The Jacobi PRs (GAP, SuiteSparse,
 * GraphIt) stay separate: the paper's Table III separates the frameworks
 * by exactly this schedule.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gm/obs/trace.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/types.hh"

namespace gm::graph
{

/**
 * Blocked Gauss–Seidel PageRank over the contribution vector (score /
 * out-degree), pulling over in-neighbours.
 *
 * Vertices are partitioned on a fixed 64-block grid (a function of n
 * only) and blocks sweep in ascending order; each block's contribution
 * updates are staged and committed at the block boundary.  Reads
 * therefore see fresh values from earlier blocks (Gauss–Seidel across
 * blocks) and iteration-start values within a block (Jacobi inside), so
 * the per-edge inner loop touches one stream like Jacobi's yet converges
 * in fewer rounds.  Each row sums in in-row order and block errors
 * combine through parallel_reduce's ordered chunk grid, so the result is
 * bit-identical at any lane count — which result caching relies on.
 *
 * @p out_degree(v) and @p in_neigh(v) (a range of vid_t) are the only
 * graph accessors, so generic adjacency types can share the sweep.  Each
 * iteration adds 1 to the "iterations" counter and the arc count (the
 * out-degree sum, which one sweep reads) to "edges_traversed".
 */
template <typename OutDegree, typename InNeigh>
std::vector<score_t>
blocked_gauss_seidel_pagerank(vid_t n, OutDegree&& out_degree,
                              InNeigh&& in_neigh, double damping,
                              double tolerance, int max_iters)
{
    const score_t base = (1.0 - damping) / n;
    std::vector<score_t> scores(static_cast<std::size_t>(n), score_t{1} / n);
    std::vector<score_t> contrib(static_cast<std::size_t>(n));
    std::vector<score_t> inv_degree(static_cast<std::size_t>(n));
    const eid_t num_edges = par::parallel_reduce<vid_t, eid_t>(
        0, n, eid_t{0},
        [&](vid_t v) {
            const eid_t d = out_degree(v);
            inv_degree[v] = d > 0 ? score_t{1} / d : 0;
            contrib[v] = scores[v] * inv_degree[v];
            return d;
        },
        [](eid_t a, eid_t b) { return a + b; });

    constexpr vid_t kBlocks = 64;
    const vid_t block = std::max<vid_t>((n + kBlocks - 1) / kBlocks, 1);
    std::vector<score_t> staged(static_cast<std::size_t>(block));

    for (int iter = 0; iter < max_iters; ++iter) {
        double error = 0.0;
        for (vid_t lo = 0; lo < n; lo += block) {
            const vid_t hi = std::min<vid_t>(lo + block, n);
            error += par::parallel_reduce<vid_t, double>(
                lo, hi, 0.0,
                [&](vid_t v) {
                    score_t incoming = 0;
                    for (vid_t u : in_neigh(v))
                        incoming += contrib[u];
                    const score_t next = base + damping * incoming;
                    const score_t old = scores[v];
                    scores[v] = next;
                    staged[v - lo] = next * inv_degree[v];
                    return std::fabs(next - old);
                },
                [](double a, double b) { return a + b; });
            par::parallel_for<vid_t>(lo, hi, [&](vid_t v) {
                contrib[v] = staged[v - lo];
            }, par::Schedule::kStatic);
        }
        obs::counter_add("iterations", 1);
        obs::counter_add("edges_traversed",
                         static_cast<std::uint64_t>(num_edges));
        if (error < tolerance)
            break;
    }
    return scores;
}

} // namespace gm::graph
