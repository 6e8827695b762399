#include "gm/galoislite/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "gm/galoislite/worklist.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/pagerank.hh"
#include "gm/graph/stats.hh"
#include "gm/obs/trace.hh"
#include "gm/par/atomics.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/bitmap.hh"
#include "gm/support/rng.hh"

namespace gm::galoislite
{

bool
pick_async_by_sampling(const CSRGraph& g)
{
    // Power-law degree distribution => assume low diameter => bulk-sync.
    return graph::classify_degree_distribution(g) !=
           graph::DegreeDistribution::kPower;
}

// ---------------------------------------------------------------- BFS ----

std::vector<vid_t>
bfs_sync(const CSRGraph& g, vid_t source)
{
    const vid_t n = g.num_vertices();
    std::vector<vid_t> parent(static_cast<std::size_t>(n), kInvalidVid);
    std::vector<vid_t> depth(static_cast<std::size_t>(n), kInvalidVid);
    parent[source] = source;
    depth[source] = 0;

    InsertBag<vid_t> next_bag;
    std::vector<vid_t> frontier{source};
    Bitmap front_bm(static_cast<std::size_t>(n));
    std::int64_t edges_to_check = g.num_edges_directed();
    vid_t level = 0;

    while (!frontier.empty()) {
        obs::counter_max("frontier_peak",
                         static_cast<std::uint64_t>(frontier.size()));
        std::int64_t frontier_edges = 0;
        for (vid_t u : frontier)
            frontier_edges += g.out_degree(u);

        if (frontier_edges > edges_to_check / 15) {
            obs::counter_add("bfs.switches", 1);
            // Bottom-up sweep(s) until the frontier thins out again.
            front_bm.reset();
            for (vid_t u : frontier)
                front_bm.set_bit(static_cast<std::size_t>(u));
            std::size_t awake = frontier.size();
            std::size_t old_awake;
            Bitmap next_bm(static_cast<std::size_t>(n));
            do {
                old_awake = awake;
                next_bm.reset();
                const vid_t next_level = level + 1;
                awake = static_cast<std::size_t>(
                    par::parallel_reduce<vid_t, std::int64_t>(
                        0, n, 0,
                        [&](vid_t v) -> std::int64_t {
                            if (depth[v] != kInvalidVid)
                                return 0;
                            for (vid_t u : g.in_neigh(v)) {
                                if (front_bm.get_bit(
                                        static_cast<std::size_t>(u))) {
                                    parent[v] = u;
                                    depth[v] = next_level;
                                    next_bm.set_bit_atomic(
                                        static_cast<std::size_t>(v));
                                    return 1;
                                }
                            }
                            return 0;
                        },
                        [](std::int64_t a, std::int64_t b) { return a + b; }));
                front_bm.swap(next_bm);
                ++level;
                obs::counter_add("iterations", 1);
                obs::counter_add("bfs.bu_steps", 1);
            } while (awake >= old_awake ||
                     awake > static_cast<std::size_t>(n) / 18);
            frontier.clear();
            for (vid_t v = 0; v < n; ++v)
                if (front_bm.get_bit(static_cast<std::size_t>(v)))
                    frontier.push_back(v);
            continue;
        }

        edges_to_check -= frontier_edges;
        const vid_t next_level = level + 1;
        par::parallel_lanes([&](int lane, int lanes) {
            for (std::size_t i = static_cast<std::size_t>(lane);
                 i < frontier.size(); i += static_cast<std::size_t>(lanes)) {
                const vid_t u = frontier[i];
                for (vid_t v : g.out_neigh(u)) {
                    if (par::atomic_load(depth[v]) == kInvalidVid &&
                        par::compare_and_swap(depth[v], kInvalidVid,
                                              next_level)) {
                        parent[v] = u;
                        next_bag.push(lane, v);
                    }
                }
            }
        });
        frontier = next_bag.take_all();
        // The CAS picks an arbitrary winner; canonicalize each discovery's
        // parent to its minimum frontier in-neighbor (depth == level) so
        // the output is lane-count independent.
        par::parallel_for<std::size_t>(0, frontier.size(),
                                       [&](std::size_t i) {
            const vid_t v = frontier[i];
            vid_t best = n;
            for (vid_t u : g.in_neigh(v)) {
                if (u < best && depth[u] == level)
                    best = u;
            }
            if (best != n)
                parent[v] = best;
        });
        ++level;
        obs::counter_add("iterations", 1);
        obs::counter_add("bfs.td_steps", 1);
        obs::counter_add("edges_traversed",
                         static_cast<std::uint64_t>(frontier_edges));
    }
    return parent;
}

std::vector<vid_t>
bfs_async(const CSRGraph& g, vid_t source)
{
    const vid_t n = g.num_vertices();
    std::vector<vid_t> depth(static_cast<std::size_t>(n),
                             std::numeric_limits<vid_t>::max());
    std::vector<vid_t> parent(static_cast<std::size_t>(n), kInvalidVid);
    depth[source] = 0;
    parent[source] = source;

    // Chaotic relaxation: an active vertex re-relaxes its neighborhood;
    // improvements re-activate the target.  No rounds.
    for_each_async<vid_t>(
        {source},
        [&](vid_t u, AsyncContext<vid_t>& ctx) {
            const vid_t du = par::atomic_load(depth[u]);
            for (vid_t v : g.out_neigh(u)) {
                if (par::fetch_min(depth[v], du + 1)) {
                    par::atomic_store(parent[v], u);
                    ctx.push(v);
                }
            }
        });

    // The chaotic relaxation races on parent (a lane can store its claim
    // after a shallower relaxation already lowered depth, and even two
    // same-depth claimants finish in arbitrary order), but depth itself is
    // the unique BFS-distance fixpoint.  So recompute every parent from
    // depth: first in-neighbor one level shallower, in adjacency order —
    // deterministic at any lane count.
    const vid_t unreached = std::numeric_limits<vid_t>::max();
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        if (v == source)
            return;
        if (depth[v] == unreached) {
            parent[v] = kInvalidVid;
            return;
        }
        for (vid_t u : g.in_neigh(v)) {
            if (depth[u] != unreached && depth[u] + 1 == depth[v]) {
                parent[v] = u;
                return;
            }
        }
    });
    return parent;
}

// --------------------------------------------------------------- SSSP ----

namespace
{

/** Shared implementation of delta-stepping; @p unbounded_drain selects the
 *  asynchronous flavor (drain own bucket fully instead of synchronizing). */
std::vector<weight_t>
delta_stepping(const WCSRGraph& g, vid_t source, weight_t delta,
               bool unbounded_drain)
{
    const vid_t n = g.num_vertices();
    std::vector<weight_t> dist(static_cast<std::size_t>(n), kInfWeight);
    dist[source] = 0;

    constexpr std::size_t kMaxBin =
        std::numeric_limits<std::size_t>::max() / 2;
    std::vector<vid_t> frontier(
        static_cast<std::size_t>(g.num_edges_directed()) + 1);
    frontier[0] = source;
    std::size_t shared_indexes[2] = {0, kMaxBin};
    std::size_t frontier_tails[2] = {1, 0};
    // Lease first so the barrier parties match the lanes parallel_lanes
    // (adopting this lease) actually runs.
    par::LaneLease lease(par::num_threads());
    par::SpinBarrier barrier(lease.width());

    par::parallel_lanes([&](int lane, int lanes) {
        std::vector<std::vector<vid_t>> local_bins;
        std::size_t iter = 0;

        auto relax = [&](vid_t u) {
            for (const graph::WNode& wn : g.out_neigh(u)) {
                weight_t old_dist = par::atomic_load(dist[wn.v]);
                const weight_t new_dist = dist[u] + wn.w;
                while (new_dist < old_dist) {
                    if (par::compare_and_swap(dist[wn.v], old_dist,
                                              new_dist)) {
                        const std::size_t b =
                            static_cast<std::size_t>(new_dist / delta);
                        if (b >= local_bins.size())
                            local_bins.resize(b + 1);
                        local_bins[b].push_back(wn.v);
                        break;
                    }
                    old_dist = par::atomic_load(dist[wn.v]);
                }
            }
        };

        while (shared_indexes[iter & 1] != kMaxBin) {
            const std::size_t curr_bin = shared_indexes[iter & 1];
            const std::size_t curr_tail = frontier_tails[iter & 1];
            std::size_t& next_tail = frontier_tails[(iter + 1) & 1];

            for (std::size_t i = static_cast<std::size_t>(lane);
                 i < curr_tail; i += static_cast<std::size_t>(lanes)) {
                const vid_t u = frontier[i];
                if (dist[u] >= static_cast<weight_t>(
                                   delta * static_cast<weight_t>(curr_bin)))
                    relax(u);
            }

            if (unbounded_drain) {
                // Asynchronous flavor: settle this lane's share of the
                // bucket completely before any synchronization.
                while (curr_bin < local_bins.size() &&
                       !local_bins[curr_bin].empty()) {
                    std::vector<vid_t> mine;
                    mine.swap(local_bins[curr_bin]);
                    for (vid_t u : mine)
                        relax(u);
                }
            }

            for (std::size_t b = curr_bin; b < local_bins.size(); ++b) {
                if (!local_bins[b].empty()) {
                    std::atomic_ref<std::size_t> ref(
                        shared_indexes[(iter + 1) & 1]);
                    std::size_t seen = ref.load(std::memory_order_relaxed);
                    while (b < seen && !ref.compare_exchange_weak(
                                           seen, b,
                                           std::memory_order_relaxed)) {
                    }
                    break;
                }
            }
            barrier.wait();

            const std::size_t next_bin = shared_indexes[(iter + 1) & 1];
            if (next_bin < local_bins.size() &&
                !local_bins[next_bin].empty()) {
                const std::size_t offset = par::fetch_add<std::size_t>(
                    next_tail, local_bins[next_bin].size());
                std::copy(local_bins[next_bin].begin(),
                          local_bins[next_bin].end(),
                          frontier.begin() +
                              static_cast<std::ptrdiff_t>(offset));
                local_bins[next_bin].clear();
            }
            barrier.wait();
            if (lane == 0) {
                shared_indexes[iter & 1] = kMaxBin;
                frontier_tails[iter & 1] = 0;
            }
            barrier.wait();
            ++iter;
        }
    });
    return dist;
}

} // namespace

std::vector<weight_t>
sssp_sync(const WCSRGraph& g, vid_t source, weight_t delta)
{
    return delta_stepping(g, source, delta, /*unbounded_drain=*/false);
}

std::vector<weight_t>
sssp_async(const WCSRGraph& g, vid_t source, weight_t delta)
{
    return delta_stepping(g, source, delta, /*unbounded_drain=*/true);
}

// ----------------------------------------------------------------- CC ----

namespace
{

void
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

void
compress(std::vector<vid_t>& comp, vid_t n)
{
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        while (comp[v] != comp[comp[v]])
            comp[v] = comp[comp[v]];
    }, par::Schedule::kStatic);
}

vid_t
sample_frequent(const std::vector<vid_t>& comp, vid_t n)
{
    std::unordered_map<vid_t, int> counts;
    Xoshiro256 rng(31);
    for (int i = 0; i < 1024; ++i)
        ++counts[comp[static_cast<vid_t>(rng.next_bounded(n))]];
    vid_t best = 0;
    int best_count = -1;
    for (const auto& [label, count] : counts) {
        if (count > best_count) {
            best_count = count;
            best = label;
        }
    }
    return best;
}

std::vector<vid_t>
afforest_impl(const CSRGraph& g, bool edge_blocked)
{
    constexpr int kNeighborRounds = 2;
    const vid_t n = g.num_vertices();
    std::vector<vid_t> comp(static_cast<std::size_t>(n));
    par::parallel_for<vid_t>(0, n, [&](vid_t v) { comp[v] = v; },
                             par::Schedule::kStatic);

    for (int r = 0; r < kNeighborRounds; ++r) {
        par::parallel_for<vid_t>(0, n, [&](vid_t u) {
            const auto neigh = g.out_neigh(u);
            if (static_cast<std::size_t>(r) < neigh.size())
                link(u, neigh[static_cast<std::size_t>(r)], comp);
        });
        compress(comp, n);
    }

    const vid_t giant = sample_frequent(comp, n);
    auto finish_vertex = [&](vid_t u, std::size_t lo, std::size_t hi) {
        const auto neigh = g.out_neigh(u);
        for (std::size_t i = lo; i < hi && i < neigh.size(); ++i)
            link(u, neigh[i], comp);
    };

    if (!edge_blocked) {
        par::parallel_for<vid_t>(0, n, [&](vid_t u) {
            if (comp[u] == giant)
                return;
            finish_vertex(u, kNeighborRounds,
                          static_cast<std::size_t>(g.out_degree(u)));
            if (g.is_directed()) {
                for (vid_t v : g.in_neigh(u))
                    link(u, v, comp);
            }
        });
    } else {
        // Edge blocking: split heavy neighborhoods into fixed-size blocks
        // so lanes share the load of skewed vertices.
        constexpr std::size_t kBlock = 512;
        struct Work
        {
            vid_t u;
            std::size_t lo;
            std::size_t hi;
        };
        std::vector<Work> work;
        for (vid_t u = 0; u < n; ++u) {
            if (comp[u] == giant)
                continue;
            const std::size_t deg =
                static_cast<std::size_t>(g.out_degree(u));
            for (std::size_t lo = kNeighborRounds; lo < deg; lo += kBlock)
                work.push_back({u, lo, std::min(deg, lo + kBlock)});
        }
        par::parallel_for<std::size_t>(0, work.size(), [&](std::size_t i) {
            finish_vertex(work[i].u, work[i].lo, work[i].hi);
        });
        if (g.is_directed()) {
            par::parallel_for<vid_t>(0, n, [&](vid_t u) {
                if (comp[u] == giant)
                    return;
                for (vid_t v : g.in_neigh(u))
                    link(u, v, comp);
            });
        }
    }
    compress(comp, n);
    return comp;
}

} // namespace

std::vector<vid_t>
cc_afforest(const CSRGraph& g)
{
    return afforest_impl(g, /*edge_blocked=*/false);
}

std::vector<vid_t>
cc_afforest_edge_blocked(const CSRGraph& g)
{
    return afforest_impl(g, /*edge_blocked=*/true);
}

// ----------------------------------------------------------------- PR ----

std::vector<score_t>
pagerank_gauss_seidel(const CSRGraph& g, double damping, double tolerance,
                      int max_iters)
{
    return graph::blocked_gauss_seidel_pagerank(
        g.num_vertices(), [&](vid_t v) { return g.out_degree(v); },
        [&](vid_t v) { return g.in_neigh(v); }, damping, tolerance,
        max_iters);
}

// ----------------------------------------------------------------- BC ----

namespace
{

/** Serial-per-source Brandes used by the source-parallel variant; returns
 *  the per-vertex dependency vector for @p s (delta[s] forced to 0). */
std::vector<double>
brandes_one_source(const CSRGraph& g, vid_t s)
{
    const vid_t n = g.num_vertices();
    std::vector<double> sigma(static_cast<std::size_t>(n), 0.0);
    std::vector<double> delta(static_cast<std::size_t>(n), 0.0);
    std::vector<vid_t> depth(static_cast<std::size_t>(n), kInvalidVid);
    std::vector<vid_t> order;
    order.reserve(static_cast<std::size_t>(n));
    sigma[s] = 1;
    depth[s] = 0;
    order.push_back(s);
    for (std::size_t head = 0; head < order.size(); ++head) {
        const vid_t v = order[head];
        for (vid_t u : g.out_neigh(v)) {
            if (depth[u] == kInvalidVid) {
                depth[u] = depth[v] + 1;
                order.push_back(u);
            }
            if (depth[u] == depth[v] + 1)
                sigma[u] += sigma[v];
        }
    }
    for (std::size_t i = order.size(); i-- > 0;) {
        const vid_t v = order[i];
        for (vid_t u : g.out_neigh(v)) {
            if (depth[u] == depth[v] + 1)
                delta[v] += (sigma[v] / sigma[u]) * (1 + delta[u]);
        }
    }
    delta[s] = 0.0;
    return delta;
}

} // namespace

std::vector<score_t>
bc_sync(const CSRGraph& g, const std::vector<vid_t>& sources)
{
    const vid_t n = g.num_vertices();
    std::vector<score_t> scores(static_cast<std::size_t>(n), 0.0);
    std::vector<double> sigma(static_cast<std::size_t>(n));
    std::vector<double> delta(static_cast<std::size_t>(n));
    std::vector<vid_t> depth(static_cast<std::size_t>(n));
    InsertBag<vid_t> next_bag;

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
            const vid_t next_level = level + 1;
            par::parallel_lanes([&](int lane, int lanes) {
                for (std::size_t i = static_cast<std::size_t>(lane);
                     i < frontier.size();
                     i += static_cast<std::size_t>(lanes)) {
                    const vid_t u = frontier[i];
                    for (vid_t v : g.out_neigh(u)) {
                        vid_t dv = par::atomic_load(depth[v]);
                        if (dv == kInvalidVid) {
                            if (par::compare_and_swap(depth[v], kInvalidVid,
                                                      next_level)) {
                                next_bag.push(lane, v);
                                dv = next_level;
                            } else {
                                dv = par::atomic_load(depth[v]);
                            }
                        }
                        if (dv == next_level)
                            par::atomic_add_float(sigma[v], sigma[u]);
                    }
                }
            });
            frontier = next_bag.take_all();
            ++level;
        }

        // Backward pass without a successor bitmap: re-tests depth on every
        // edge (the overhead the paper says costs Galois vs GAP).
        for (std::size_t d = levels.size(); d-- > 0;) {
            const auto& lvl = levels[d];
            par::parallel_for<std::size_t>(0, lvl.size(), [&](std::size_t i) {
                const vid_t u = lvl[i];
                double acc = 0;
                for (vid_t v : g.out_neigh(u)) {
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

std::vector<score_t>
bc_async(const CSRGraph& g, const std::vector<vid_t>& sources)
{
    const vid_t n = g.num_vertices();
    std::vector<score_t> scores(static_cast<std::size_t>(n), 0.0);
    // Dependencies are real-valued, so the accumulation order matters for
    // the low bits: keep each source's vector and merge in source order
    // rather than letting lanes race additions into the shared array.
    std::vector<std::vector<double>> per_source(sources.size());
    par::parallel_for<std::size_t>(0, sources.size(), [&](std::size_t i) {
        per_source[i] = brandes_one_source(g, sources[i]);
    });
    par::parallel_for<vid_t>(0, n, [&](vid_t v) {
        double total = 0.0;
        for (const auto& delta : per_source)
            total += delta[static_cast<std::size_t>(v)];
        scores[v] = total;
    }, par::Schedule::kStatic);
    const score_t biggest = *std::max_element(scores.begin(), scores.end());
    if (biggest > 0) {
        for (auto& sc : scores)
            sc /= biggest;
    }
    return scores;
}

// ----------------------------------------------------------------- TC ----

std::uint64_t
tc(const CSRGraph& g)
{
    const graph::CSRGraph* use = &g;
    graph::CSRGraph relabeled;
    if (graph::worth_relabeling_by_degree(g)) {
        relabeled = graph::relabel_by_degree(g);
        use = &relabeled;
    }
    const CSRGraph& h = *use;
    // Fine-grained dynamic chunks emulate Galois work stealing.
    return par::parallel_reduce<vid_t, std::uint64_t>(
        0, h.num_vertices(), 0,
        [&](vid_t u) -> std::uint64_t {
            std::uint64_t local = 0;
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
            return local;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

} // namespace gm::galoislite
