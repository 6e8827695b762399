#include "gm/gkc/kernels.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "gm/gkc/local_buffer.hh"
#include "gm/graph/builder.hh"
#include "gm/graph/pagerank.hh"
#include "gm/graph/stats.hh"
#include "gm/obs/trace.hh"
#include "gm/par/atomics.hh"
#include "gm/par/barrier.hh"
#include "gm/par/parallel_for.hh"
#include "gm/support/bitmap.hh"

namespace gm::gkc
{

// ---------------------------------------------------------------- BFS ----

std::vector<vid_t>
bfs(const CSRGraph& g, vid_t source)
{
    const vid_t n = g.num_vertices();
    std::vector<vid_t> parent(static_cast<std::size_t>(n), kInvalidVid);
    std::vector<vid_t> depth(static_cast<std::size_t>(n), kInvalidVid);
    parent[source] = source;
    depth[source] = 0;

    // Double-buffered global frontier; lanes fill it through LocalBuffers.
    std::vector<vid_t> curr(static_cast<std::size_t>(n));
    std::vector<vid_t> next(static_cast<std::size_t>(n));
    curr[0] = source;
    std::size_t curr_size = 1;
    std::size_t next_cursor = 0;

    Bitmap front_bm(static_cast<std::size_t>(n));
    Bitmap next_bm(static_cast<std::size_t>(n));
    std::int64_t edges_to_check = g.num_edges_directed();
    vid_t level = 0;

    while (curr_size > 0) {
        obs::counter_max("frontier_peak",
                         static_cast<std::uint64_t>(curr_size));
        std::int64_t frontier_edges = 0;
        for (std::size_t i = 0; i < curr_size; ++i)
            frontier_edges += g.out_degree(curr[i]);

        if (frontier_edges > edges_to_check / 15) {
            // Bottom-up phase.
            obs::counter_add("bfs.switches", 1);
            front_bm.reset();
            for (std::size_t i = 0; i < curr_size; ++i)
                front_bm.set_bit(static_cast<std::size_t>(curr[i]));
            std::size_t awake = curr_size;
            std::size_t old_awake;
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
                            const auto neigh = g.in_neigh(v);
                            // 4-way unrolled probe of the frontier bitmap.
                            std::size_t i = 0;
                            const std::size_t deg = neigh.size();
                            for (; i + 4 <= deg; i += 4) {
                                const bool h0 = front_bm.get_bit(
                                    static_cast<std::size_t>(neigh[i]));
                                const bool h1 = front_bm.get_bit(
                                    static_cast<std::size_t>(neigh[i + 1]));
                                const bool h2 = front_bm.get_bit(
                                    static_cast<std::size_t>(neigh[i + 2]));
                                const bool h3 = front_bm.get_bit(
                                    static_cast<std::size_t>(neigh[i + 3]));
                                if (h0 | h1 | h2 | h3) {
                                    const std::size_t hit =
                                        h0 ? i : h1 ? i + 1 : h2 ? i + 2
                                                                 : i + 3;
                                    parent[v] = neigh[hit];
                                    depth[v] = next_level;
                                    next_bm.set_bit_atomic(
                                        static_cast<std::size_t>(v));
                                    return 1;
                                }
                            }
                            for (; i < deg; ++i) {
                                if (front_bm.get_bit(static_cast<std::size_t>(
                                        neigh[i]))) {
                                    parent[v] = neigh[i];
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
                obs::counter_max("frontier_peak",
                                 static_cast<std::uint64_t>(awake));
            } while (awake >= old_awake ||
                     awake > static_cast<std::size_t>(n) / 18);
            curr_size = 0;
            for (vid_t v = 0; v < n; ++v)
                if (front_bm.get_bit(static_cast<std::size_t>(v)))
                    curr[curr_size++] = v;
            continue;
        }

        edges_to_check -= frontier_edges;
        next_cursor = 0;
        const vid_t next_level = level + 1;
        par::parallel_lanes([&](int lane, int lanes) {
            LocalBuffer<vid_t> local(next.data(), next_cursor);
            for (std::size_t i = static_cast<std::size_t>(lane);
                 i < curr_size; i += static_cast<std::size_t>(lanes)) {
                const vid_t u = curr[i];
                for (vid_t v : g.out_neigh(u)) {
                    if (par::atomic_load(depth[v]) == kInvalidVid &&
                        par::compare_and_swap(depth[v], kInvalidVid,
                                              next_level)) {
                        parent[v] = u;
                        local.push_back(v);
                    }
                }
            }
        });
        // The CAS decides membership deterministically but lets an
        // arbitrary frontier vertex win the parent slot; rewrite each
        // discovery's parent as its minimum current-level in-neighbor so
        // the output is identical at any lane count (depth[u] == level is
        // exactly "u is in the frontier just expanded").
        par::parallel_for<std::size_t>(0, next_cursor, [&](std::size_t i) {
            const vid_t v = next[i];
            vid_t best = n;
            for (vid_t u : g.in_neigh(v)) {
                if (u < best && depth[u] == level)
                    best = u;
            }
            if (best != n)
                parent[v] = best;
        });
        curr.swap(next);
        curr_size = next_cursor;
        ++level;
        obs::counter_add("iterations", 1);
        obs::counter_add("bfs.td_steps", 1);
        obs::counter_add("edges_traversed",
                         static_cast<std::uint64_t>(frontier_edges));
    }
    return parent;
}

// --------------------------------------------------------------- SSSP ----

std::vector<weight_t>
sssp(const WCSRGraph& g, vid_t source, weight_t delta)
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
    // (adopting this lease) actually runs; the short bucket rounds favor
    // the spinning barrier.
    par::LaneLease lease(par::num_threads());
    par::SpinBarrier barrier(lease.width());

    par::parallel_lanes([&](int lane, int lanes) {
        std::vector<std::vector<vid_t>> local_bins;
        std::size_t iter = 0;
        std::uint64_t edges_scanned = 0;
        std::uint64_t relaxations = 0;

        auto relax = [&](vid_t u) {
            for (const graph::WNode& wn : g.out_neigh(u)) {
                ++edges_scanned;
                weight_t old_dist = par::atomic_load(dist[wn.v]);
                const weight_t new_dist = dist[u] + wn.w;
                while (new_dist < old_dist) {
                    if (par::compare_and_swap(dist[wn.v], old_dist,
                                              new_dist)) {
                        ++relaxations;
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
        obs::counter_add("edges_traversed", edges_scanned);
        obs::counter_add("sssp.relaxations", relaxations);
        if (lane == 0) {
            obs::counter_add("iterations",
                             static_cast<std::uint64_t>(iter));
            obs::counter_add("sssp.buckets",
                             static_cast<std::uint64_t>(iter));
        }
    });
    return dist;
}

// ----------------------------------------------------------------- CC ----

std::vector<vid_t>
cc_sv(const CSRGraph& g)
{
    const vid_t n = g.num_vertices();
    std::vector<vid_t> comp(static_cast<std::size_t>(n));
    par::parallel_for<vid_t>(0, n, [&](vid_t v) { comp[v] = v; },
                             par::Schedule::kStatic);

    // Hybrid Shiloach-Vishkin: edge-centric hooking onto roots followed by
    // full pointer-jump compression, repeated until stable.  Full edge
    // sweeps per round are cheap on low-diameter graphs (where this wins,
    // e.g. Urand) and expensive on long chains (Road).
    bool changed = true;
    while (changed) {
        std::atomic<bool> any{false};
        par::parallel_for<vid_t>(0, n, [&](vid_t u) {
            bool local = false;
            for (vid_t v : g.out_neigh(u)) {
                const vid_t cu = par::atomic_load(comp[u]);
                const vid_t cv = par::atomic_load(comp[v]);
                if (cu < cv) {
                    // Hook the root of v's tree onto the smaller label.
                    if (par::compare_and_swap(comp[cv], cv, cu))
                        local = true;
                    else
                        local |= par::fetch_min(comp[cv], cu);
                } else if (cv < cu) {
                    if (par::compare_and_swap(comp[cu], cu, cv))
                        local = true;
                    else
                        local |= par::fetch_min(comp[cu], cv);
                }
            }
            if (local)
                any.store(true, std::memory_order_relaxed);
        }, par::Schedule::kDynamic, vid_t{256});

        // Compression.
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            while (comp[v] != comp[comp[v]])
                comp[v] = comp[comp[v]];
        }, par::Schedule::kStatic);
        changed = any.load();
    }
    return comp;
}

// ----------------------------------------------------------------- PR ----

std::vector<score_t>
pagerank(const CSRGraph& g, double damping, double tolerance, int max_iters)
{
    return graph::blocked_gauss_seidel_pagerank(
        g.num_vertices(), [&](vid_t v) { return g.out_degree(v); },
        [&](vid_t v) { return g.in_neigh(v); }, damping, tolerance,
        max_iters);
}

// ----------------------------------------------------------------- BC ----

std::vector<score_t>
bc(const CSRGraph& g, const std::vector<vid_t>& sources)
{
    const vid_t n = g.num_vertices();
    const std::size_t m = static_cast<std::size_t>(g.num_edges_directed());
    std::vector<score_t> scores(static_cast<std::size_t>(n), 0.0);
    std::vector<double> sigma(static_cast<std::size_t>(n));
    std::vector<double> delta(static_cast<std::size_t>(n));
    std::vector<vid_t> depth(static_cast<std::size_t>(n));
    Bitmap succ(m);
    const auto& offsets = g.out_offsets();
    const auto& dests = g.out_destinations();

    for (vid_t s : sources) {
        std::fill(sigma.begin(), sigma.end(), 0.0);
        std::fill(delta.begin(), delta.end(), 0.0);
        std::fill(depth.begin(), depth.end(), kInvalidVid);
        succ.reset();
        sigma[s] = 1;
        depth[s] = 0;

        std::vector<std::vector<vid_t>> levels;
        std::vector<vid_t> frontier{s};
        std::vector<vid_t> next(static_cast<std::size_t>(n));
        vid_t level = 0;
        while (!frontier.empty()) {
            levels.push_back(frontier);
            std::size_t next_cursor = 0;
            const vid_t next_level = level + 1;
            par::parallel_lanes([&](int lane, int lanes) {
                LocalBuffer<vid_t> local(next.data(), next_cursor);
                for (std::size_t i = static_cast<std::size_t>(lane);
                     i < frontier.size();
                     i += static_cast<std::size_t>(lanes)) {
                    const vid_t u = frontier[i];
                    for (eid_t e = offsets[u]; e < offsets[u + 1]; ++e) {
                        const vid_t v = dests[e];
                        vid_t dv = par::atomic_load(depth[v]);
                        if (dv == kInvalidVid) {
                            if (par::compare_and_swap(depth[v], kInvalidVid,
                                                      next_level)) {
                                local.push_back(v);
                                dv = next_level;
                            } else {
                                dv = par::atomic_load(depth[v]);
                            }
                        }
                        if (dv == next_level) {
                            succ.set_bit_atomic(static_cast<std::size_t>(e));
                            par::atomic_add_float(sigma[v], sigma[u]);
                        }
                    }
                }
            });
            frontier.assign(next.begin(),
                            next.begin() +
                                static_cast<std::ptrdiff_t>(next_cursor));
            ++level;
        }

        for (std::size_t d = levels.size(); d-- > 0;) {
            const auto& lvl = levels[d];
            par::parallel_for<std::size_t>(0, lvl.size(), [&](std::size_t i) {
                const vid_t u = lvl[i];
                double acc = 0;
                for (eid_t e = offsets[u]; e < offsets[u + 1]; ++e) {
                    if (succ.get_bit(static_cast<std::size_t>(e))) {
                        const vid_t v = dests[e];
                        acc += (sigma[u] / sigma[v]) * (1 + delta[v]);
                    }
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

// ----------------------------------------------------------------- TC ----

std::uint64_t
intersect_sorted(const vid_t* a, std::size_t na, const vid_t* b,
                 std::size_t nb)
{
    // Branch-light 4-way unrolled merge: the portable stand-in for GKC's
    // SIMD set intersection.
    std::uint64_t count = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 4 <= na && j + 4 <= nb) {
        const vid_t a3 = a[i + 3];
        const vid_t b3 = b[j + 3];
        if (a3 <= b[j]) {
            // Entire a-block below b-block start: count exact hits cheaply.
            count += (a3 == b[j]);
            i += 4;
            continue;
        }
        if (b3 <= a[i]) {
            count += (b3 == a[i]);
            j += 4;
            continue;
        }
        // Overlapping blocks: scalar merge across the smaller step.
        const vid_t ai = a[i];
        const vid_t bj = b[j];
        count += (ai == bj);
        i += (ai <= bj);
        j += (bj <= ai);
    }
    while (i < na && j < nb) {
        const vid_t ai = a[i];
        const vid_t bj = b[j];
        count += (ai == bj);
        i += (ai <= bj);
        j += (bj <= ai);
    }
    return count;
}

std::uint64_t
tc(const CSRGraph& g)
{
    // Heuristic relabel by degree skew, then count ordered wedges with the
    // unrolled intersection over previously-visited (cache-warm) lists.
    const graph::CSRGraph* use = &g;
    graph::CSRGraph relabeled;
    if (graph::worth_relabeling_by_degree(g)) {
        relabeled = graph::relabel_by_degree(g);
        use = &relabeled;
    }
    const CSRGraph& h = *use;
    return par::parallel_reduce<vid_t, std::uint64_t>(
        0, h.num_vertices(), 0,
        [&](vid_t u) -> std::uint64_t {
            const auto u_neigh = h.out_neigh(u);
            // Only the prefix with ids < u matters (ordered counting).
            std::size_t u_len = 0;
            while (u_len < u_neigh.size() && u_neigh[u_len] < u)
                ++u_len;
            std::uint64_t local = 0;
            for (std::size_t i = 0; i < u_len; ++i) {
                const vid_t v = u_neigh[i];
                const auto v_neigh = h.out_neigh(v);
                std::size_t v_len = 0;
                while (v_len < v_neigh.size() && v_neigh[v_len] < v)
                    ++v_len;
                local += intersect_sorted(u_neigh.data(), u_len,
                                          v_neigh.data(), v_len);
            }
            return local;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

} // namespace gm::gkc
