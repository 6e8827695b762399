/**
 * @file
 * Generic graph algorithms over the range-of-ranges abstraction.
 *
 * Per the paper's description of NWGraph: algorithms are function templates
 * in modern C++ idiom; the BFS is a "straightforward, initial" direction-
 * optimizing search with an untuned switch heuristic; CC is Afforest; PR is
 * Gauss–Seidel; BC is Brandes without direction optimization; TC uses a
 * cyclic distribution of rows for load balance plus a pre-compression
 * relabel.  Working storage uses std::vector throughout — the paper calls
 * out the overhead of "STL vectors over more lightweight vectors" as
 * NWGraph's weakness on the small Road graph, and this implementation
 * reproduces that by allocating its frontiers per round.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "gm/graph/builder.hh"
#include "gm/graph/pagerank.hh"
#include "gm/graph/stats.hh"
#include "gm/nwlite/adjacency.hh"
#include "gm/obs/trace.hh"
#include "gm/par/atomics.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/bitmap.hh"
#include "gm/support/rng.hh"

namespace gm::nwlite
{

/**
 * Direction-optimizing breadth-first search.
 *
 * @return Parent array (parent[source] == source; kInvalidVid unreached).
 */
template <bidirectional_adjacency_list G>
std::vector<vid_t>
bfs(const G& g, vid_t source)
{
    const vid_t n = g.num_vertices();
    std::vector<vid_t> parent(static_cast<std::size_t>(n), kInvalidVid);
    std::vector<vid_t> depth(static_cast<std::size_t>(n), kInvalidVid);
    parent[source] = source;
    depth[source] = 0;

    std::vector<vid_t> frontier{source};
    vid_t level = 0;
    while (!frontier.empty()) {
        obs::counter_add("iterations", 1);
        obs::counter_max("frontier_peak",
                         static_cast<std::uint64_t>(frontier.size()));
        // Simple, untuned switch: go bottom-up purely on frontier size.
        if (frontier.size() > static_cast<std::size_t>(n) / 20) {
            obs::counter_add("bfs.bu_steps", 1);
            Bitmap front(static_cast<std::size_t>(n));
            front.reset();
            for (vid_t u : frontier)
                front.set_bit(static_cast<std::size_t>(u));
            std::vector<vid_t> next; // fresh std::vector every round
            std::mutex next_mutex;
            const vid_t next_level = level + 1;
            par::parallel_blocks<vid_t>(
                0, n, [&](int, vid_t lo, vid_t hi) {
                    std::vector<vid_t> local;
                    for (vid_t v = lo; v < hi; ++v) {
                        if (depth[v] != kInvalidVid)
                            continue;
                        for (vid_t u : g.in_edges(v)) {
                            if (front.get_bit(static_cast<std::size_t>(u))) {
                                depth[v] = next_level;
                                parent[v] = u;
                                local.push_back(v);
                                break;
                            }
                        }
                    }
                    std::lock_guard<std::mutex> lock(next_mutex);
                    next.insert(next.end(), local.begin(), local.end());
                });
            frontier = std::move(next);
        } else {
            obs::counter_add("bfs.td_steps", 1);
            std::vector<vid_t> next;
            std::mutex next_mutex;
            const vid_t next_level = level + 1;
            par::parallel_blocks<std::size_t>(
                0, frontier.size(), [&](int, std::size_t lo, std::size_t hi) {
                    std::vector<vid_t> local;
                    for (std::size_t i = lo; i < hi; ++i) {
                        const vid_t u = frontier[i];
                        for (vid_t v : g[u]) {
                            if (par::atomic_load(depth[v]) == kInvalidVid &&
                                par::compare_and_swap(depth[v], kInvalidVid,
                                                      next_level)) {
                                parent[v] = u;
                                local.push_back(v);
                            }
                        }
                    }
                    std::lock_guard<std::mutex> lock(next_mutex);
                    next.insert(next.end(), local.begin(), local.end());
                });
            // The CAS picks an arbitrary winner; canonicalize each
            // discovery's parent to its minimum frontier in-neighbor
            // (depth == level) so the output is lane-count independent.
            par::parallel_for<std::size_t>(0, next.size(),
                                           [&](std::size_t i) {
                const vid_t v = next[i];
                vid_t best = n;
                for (vid_t u : g.in_edges(v)) {
                    if (u < best && depth[u] == level)
                        best = u;
                }
                if (best != n)
                    parent[v] = best;
            });
            frontier = std::move(next);
        }
        ++level;
    }
    return parent;
}

/** Delta-stepping SSSP with round-synchronous buckets and per-round
 *  std::vector frontiers. */
template <weighted_adjacency_list G>
std::vector<weight_t>
delta_stepping(const G& g, vid_t source, weight_t delta)
{
    const vid_t n = g.num_vertices();
    std::vector<weight_t> dist(static_cast<std::size_t>(n), kInfWeight);
    dist[source] = 0;

    // Global bucket table (priority -> vertex list), rebuilt as it drains.
    std::vector<std::vector<vid_t>> buckets(1);
    buckets[0].push_back(source);
    std::size_t current = 0;

    while (current < buckets.size()) {
        if (buckets[current].empty()) {
            ++current;
            continue;
        }
        std::vector<vid_t> active;
        active.swap(buckets[current]);
        obs::counter_add("iterations", 1);
        obs::counter_add("sssp.buckets", 1);
        obs::counter_max("frontier_peak",
                         static_cast<std::uint64_t>(active.size()));
        std::vector<std::pair<vid_t, std::size_t>> requeued;
        std::mutex requeue_mutex;

        par::parallel_blocks<std::size_t>(
            0, active.size(), [&](int, std::size_t lo, std::size_t hi) {
                std::vector<std::pair<vid_t, std::size_t>> local;
                for (std::size_t i = lo; i < hi; ++i) {
                    const vid_t u = active[i];
                    if (dist[u] <
                        static_cast<weight_t>(delta) *
                            static_cast<weight_t>(current))
                        continue; // settled in an earlier bucket
                    for (const auto& e : g[u]) {
                        weight_t old_dist = par::atomic_load(dist[e.v]);
                        const weight_t new_dist = dist[u] + e.w;
                        while (new_dist < old_dist) {
                            if (par::compare_and_swap(dist[e.v], old_dist,
                                                      new_dist)) {
                                local.push_back(
                                    {e.v, static_cast<std::size_t>(
                                              new_dist / delta)});
                                break;
                            }
                            old_dist = par::atomic_load(dist[e.v]);
                        }
                    }
                }
                std::lock_guard<std::mutex> lock(requeue_mutex);
                requeued.insert(requeued.end(), local.begin(), local.end());
            });

        for (const auto& [v, b] : requeued) {
            if (b >= buckets.size())
                buckets.resize(b + 1);
            buckets[b].push_back(v);
        }
    }
    return dist;
}

namespace detail
{

inline void
link(vid_t u, vid_t v, std::vector<vid_t>& comp)
{
    vid_t p1 = par::atomic_load(comp[u]);
    vid_t p2 = par::atomic_load(comp[v]);
    while (p1 != p2) {
        const vid_t high = std::max(p1, p2);
        const vid_t low = std::min(p1, p2);
        const vid_t p_high = par::atomic_load(comp[high]);
        if (p_high == low ||
            (p_high == high && par::compare_and_swap(comp[high], high, low)))
            break;
        p1 = par::atomic_load(comp[par::atomic_load(comp[high])]);
        p2 = par::atomic_load(comp[low]);
    }
}

} // namespace detail

/** Afforest connected components (weak components on directed graphs). */
template <bidirectional_adjacency_list G>
std::vector<vid_t>
afforest(const G& g)
{
    constexpr int kRounds = 2;
    const vid_t n = g.num_vertices();
    std::vector<vid_t> comp(static_cast<std::size_t>(n));
    std::iota(comp.begin(), comp.end(), 0);

    auto compress = [&] {
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            while (comp[v] != comp[comp[v]])
                comp[v] = comp[comp[v]];
        }, par::Schedule::kStatic);
    };

    for (int r = 0; r < kRounds; ++r) {
        par::parallel_for<vid_t>(0, n, [&](vid_t u) {
            int i = 0;
            for (vid_t v : g[u]) {
                if (i++ == r) {
                    detail::link(u, v, comp);
                    break;
                }
            }
        });
        compress();
    }

    // Sample the giant component and skip it in the finish phase.
    Xoshiro256 rng(47);
    std::unordered_map<vid_t, int> counts;
    for (int i = 0; i < 1024; ++i)
        ++counts[comp[static_cast<vid_t>(rng.next_bounded(n))]];
    vid_t giant = 0;
    int best = -1;
    for (const auto& [label, count] : counts) {
        if (count > best) {
            best = count;
            giant = label;
        }
    }

    par::parallel_for<vid_t>(0, n, [&](vid_t u) {
        if (comp[u] == giant)
            return;
        int i = 0;
        for (vid_t v : g[u]) {
            if (i++ >= kRounds)
                detail::link(u, v, comp);
        }
        if (g.is_directed()) {
            for (vid_t v : g.in_edges(u))
                detail::link(u, v, comp);
        }
    });
    compress();
    return comp;
}

/** Gauss–Seidel PageRank over in-edges (the shared blocked sweep). */
template <bidirectional_adjacency_list G>
std::vector<score_t>
pagerank(const G& g, double damping = 0.85, double tolerance = 1e-4,
         int max_iters = 100)
{
    return graph::blocked_gauss_seidel_pagerank(
        g.num_vertices(), [&](vid_t v) { return g.degree(v); },
        [&](vid_t v) { return g.in_edges(v); }, damping, tolerance,
        max_iters);
}

/** Brandes betweenness centrality without direction optimization. */
template <adjacency_list G>
std::vector<score_t>
brandes_bc(const G& g, const std::vector<vid_t>& sources)
{
    const vid_t n = g.num_vertices();
    std::vector<score_t> scores(static_cast<std::size_t>(n), 0.0);
    std::vector<double> sigma(static_cast<std::size_t>(n));
    std::vector<double> delta(static_cast<std::size_t>(n));
    std::vector<vid_t> depth(static_cast<std::size_t>(n));

    for (vid_t s : sources) {
        std::fill(sigma.begin(), sigma.end(), 0.0);
        std::fill(delta.begin(), delta.end(), 0.0);
        std::fill(depth.begin(), depth.end(), kInvalidVid);
        sigma[s] = 1;
        depth[s] = 0;

        std::vector<std::vector<vid_t>> levels;
        std::vector<vid_t> frontier{s};
        vid_t level = 0;
        while (!frontier.empty()) {
            levels.push_back(frontier);
            std::vector<vid_t> next;
            std::mutex next_mutex;
            const vid_t next_level = level + 1;
            par::parallel_blocks<std::size_t>(
                0, frontier.size(), [&](int, std::size_t lo, std::size_t hi) {
                    std::vector<vid_t> local;
                    for (std::size_t i = lo; i < hi; ++i) {
                        const vid_t u = frontier[i];
                        for (vid_t v : g[u]) {
                            vid_t dv = par::atomic_load(depth[v]);
                            if (dv == kInvalidVid) {
                                if (par::compare_and_swap(depth[v],
                                                          kInvalidVid,
                                                          next_level)) {
                                    local.push_back(v);
                                    dv = next_level;
                                } else {
                                    dv = par::atomic_load(depth[v]);
                                }
                            }
                            if (dv == next_level)
                                par::atomic_add_float(sigma[v], sigma[u]);
                        }
                    }
                    std::lock_guard<std::mutex> lock(next_mutex);
                    next.insert(next.end(), local.begin(), local.end());
                });
            frontier = std::move(next);
            ++level;
        }

        for (std::size_t d = levels.size(); d-- > 0;) {
            const auto& lvl = levels[d];
            par::parallel_for<std::size_t>(0, lvl.size(), [&](std::size_t i) {
                const vid_t u = lvl[i];
                double acc = 0;
                for (vid_t v : g[u]) {
                    if (depth[v] == depth[u] + 1)
                        acc += (sigma[u] / sigma[v]) * (1 + delta[v]);
                }
                delta[u] = acc;
                if (u != s)
                    scores[u] += acc;
            });
        }
    }

    const score_t biggest = *std::max_element(scores.begin(), scores.end());
    if (biggest > 0) {
        for (auto& sc : scores)
            sc /= biggest;
    }
    return scores;
}

/**
 * Triangle counting with a cyclic row distribution (the NWGraph trick the
 * paper credits for "near optimal load balancing" on skewed graphs) and a
 * relabel decided on the edge list before compression.
 */
inline std::uint64_t
triangle_count(const adjacency& g)
{
    const graph::CSRGraph* use = &g.base();
    graph::CSRGraph relabeled;
    if (graph::worth_relabeling_by_degree(g.base())) {
        relabeled = graph::relabel_by_degree(g.base());
        use = &relabeled;
    }
    const graph::CSRGraph& h = *use;
    std::vector<std::uint64_t> lane_counts(
        static_cast<std::size_t>(par::num_threads()), 0);
    par::parallel_lanes([&](int lane, int lanes) {
        std::uint64_t local = 0;
        // Cyclic row distribution: lane t takes rows t, t+N, t+2N, ...
        for (vid_t u = static_cast<vid_t>(lane); u < h.num_vertices();
             u += static_cast<vid_t>(lanes)) {
            const auto u_neigh = h.out_neigh(u);
            for (vid_t v : u_neigh) {
                if (v > u)
                    break;
                auto it = u_neigh.begin();
                for (vid_t w : h.out_neigh(v)) {
                    if (w > v)
                        break;
                    while (*it < w)
                        ++it;
                    if (w == *it)
                        ++local;
                }
            }
        }
        lane_counts[static_cast<std::size_t>(lane)] = local;
    });
    std::uint64_t total = 0;
    for (std::uint64_t c : lane_counts)
        total += c;
    return total;
}

} // namespace gm::nwlite
