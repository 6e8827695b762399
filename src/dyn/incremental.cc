#include "gm/dyn/incremental.hh"

#include <algorithm>
#include <deque>
#include <queue>
#include <unordered_map>
#include <utility>

#include "gm/graph/builder.hh"
#include "gm/par/parallel_for.hh"

namespace gm::dyn
{

namespace
{

/** Iterative find with full path compression over a vid_t parent array. */
vid_t
dsu_find(std::vector<vid_t>& parent, vid_t v)
{
    vid_t root = v;
    while (parent[root] != root)
        root = parent[root];
    while (parent[v] != root) {
        const vid_t next = parent[v];
        parent[v] = root;
        v = next;
    }
    return root;
}

/** Find over a sparse label-value DSU (identity when absent). */
vid_t
map_find(std::unordered_map<vid_t, vid_t>& parent, vid_t v)
{
    auto it = parent.find(v);
    while (it != parent.end() && it->second != v) {
        v = it->second;
        it = parent.find(v);
    }
    return v;
}

} // namespace

std::vector<vid_t>
cc_labels(const GraphView& view)
{
    const vid_t n = view.num_vertices();
    std::vector<vid_t> parent(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v)
        parent[v] = v;
    // Union by min root: the root of every set is its minimum vertex id,
    // so the compressed parent IS the canonical label.  Out-arcs alone
    // cover weak connectivity (each edge appears in some out row).
    for (vid_t v = 0; v < n; ++v) {
        view.for_out(v, [&](vid_t t) {
            const vid_t rv = dsu_find(parent, v);
            const vid_t rt = dsu_find(parent, t);
            if (rv < rt)
                parent[rt] = rv;
            else if (rt < rv)
                parent[rv] = rt;
        });
    }
    std::vector<vid_t> labels(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v)
        labels[v] = dsu_find(parent, v);
    return labels;
}

std::vector<vid_t>
bfs_depths(const GraphView& view, vid_t source)
{
    const vid_t n = view.num_vertices();
    std::vector<vid_t> depth(static_cast<std::size_t>(n), kInvalidVid);
    if (source < 0 || source >= n)
        return depth;
    depth[source] = 0;
    std::deque<vid_t> frontier{source};
    while (!frontier.empty()) {
        const vid_t v = frontier.front();
        frontier.pop_front();
        const vid_t dv = depth[v];
        view.for_out(v, [&](vid_t t) {
            if (depth[t] == kInvalidVid) {
                depth[t] = dv + 1;
                frontier.push_back(t);
            }
        });
    }
    return depth;
}

std::vector<weight_t>
sssp_dists(const GraphView& view, vid_t source, std::uint64_t weight_seed)
{
    const vid_t n = view.num_vertices();
    std::vector<weight_t> dist(static_cast<std::size_t>(n), kInfWeight);
    if (source < 0 || source >= n)
        return dist;
    using Item = std::pair<weight_t, vid_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[source] = 0;
    pq.push({0, source});
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[v])
            continue; // stale entry
        view.for_out(v, [&](vid_t t) {
            const weight_t w = graph::pair_weight(v, t, weight_seed);
            if (dist[t] > d + w) {
                dist[t] = d + w;
                pq.push({dist[t], t});
            }
        });
    }
    return dist;
}

void
CCMaintainer::rebuild(const GraphView& view)
{
    labels_ = cc_labels(view);
}

bool
CCMaintainer::update(const GraphView& view, const BatchEffect& effect)
{
    const vid_t n = view.num_vertices();
    stats_.last_dirty_fraction = effect.dirty_fraction(n);
    if (effect.has_deletes() ||
        stats_.last_dirty_fraction > opts_.full_threshold) {
        rebuild(view);
        ++stats_.full;
        return false;
    }
    // Afforest-style re-linking of the batch-touched endpoints: union the
    // previous component labels of every inserted edge (min label wins,
    // preserving the min-id invariant), then one relabel pass — skipped
    // entirely when no insert joined two components.
    std::unordered_map<vid_t, vid_t> parent;
    bool merged = false;
    for (const graph::Edge& e : effect.inserted) {
        const vid_t lu = map_find(parent, labels_[e.u]);
        const vid_t lv = map_find(parent, labels_[e.v]);
        if (lu == lv)
            continue;
        parent[std::max(lu, lv)] = std::min(lu, lv);
        merged = true;
    }
    if (merged) {
        std::unordered_map<vid_t, vid_t> resolved;
        resolved.reserve(parent.size());
        for (const auto& [label, _] : parent)
            resolved[label] = map_find(parent, label);
        // Read-only map; independent writes — width-invariant.
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            const auto it = resolved.find(labels_[v]);
            if (it != resolved.end())
                labels_[v] = it->second;
        });
    }
    ++stats_.incremental;
    return true;
}

void
BfsMaintainer::rebuild(const GraphView& view)
{
    depths_ = bfs_depths(view, source_);
}

bool
BfsMaintainer::update(const GraphView& view, const BatchEffect& effect)
{
    const vid_t n = view.num_vertices();
    stats_.last_dirty_fraction = effect.dirty_fraction(n);
    if (effect.has_deletes() ||
        stats_.last_dirty_fraction > opts_.full_threshold) {
        rebuild(view);
        ++stats_.full;
        return false;
    }
    // Inserts only shorten paths, so monotone relaxation from the
    // endpoints a new arc improved converges to the unique depth fixed
    // point — bit-identical to a full recompute.
    std::deque<vid_t> work;
    const auto relax = [&](vid_t u, vid_t v) {
        if (depths_[u] == kInvalidVid)
            return;
        if (depths_[v] == kInvalidVid || depths_[v] > depths_[u] + 1) {
            depths_[v] = depths_[u] + 1;
            work.push_back(v);
        }
    };
    for (const graph::Edge& e : effect.inserted) {
        relax(e.u, e.v);
        if (!view.is_directed())
            relax(e.v, e.u);
    }
    while (!work.empty()) {
        const vid_t v = work.front();
        work.pop_front();
        const vid_t dv = depths_[v];
        view.for_out(v, [&](vid_t t) {
            if (depths_[t] == kInvalidVid || depths_[t] > dv + 1) {
                depths_[t] = dv + 1;
                work.push_back(t);
            }
        });
    }
    ++stats_.incremental;
    return true;
}

void
SsspMaintainer::rebuild(const GraphView& view)
{
    dists_ = sssp_dists(view, source_, weight_seed_);
}

bool
SsspMaintainer::update(const GraphView& view, const BatchEffect& effect)
{
    const vid_t n = view.num_vertices();
    stats_.last_dirty_fraction = effect.dirty_fraction(n);
    if (effect.has_deletes() ||
        stats_.last_dirty_fraction > opts_.full_threshold) {
        rebuild(view);
        ++stats_.full;
        return false;
    }
    using Item = std::pair<weight_t, vid_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    const auto relax = [&](vid_t u, vid_t v) {
        if (dists_[u] >= kInfWeight)
            return;
        const weight_t w = graph::pair_weight(u, v, weight_seed_);
        if (dists_[v] > dists_[u] + w) {
            dists_[v] = dists_[u] + w;
            pq.push({dists_[v], v});
        }
    };
    for (const graph::Edge& e : effect.inserted) {
        relax(e.u, e.v);
        if (!view.is_directed())
            relax(e.v, e.u);
    }
    while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > dists_[v])
            continue;
        view.for_out(v, [&](vid_t t) {
            const weight_t w = graph::pair_weight(v, t, weight_seed_);
            if (dists_[t] > d + w) {
                dists_[t] = d + w;
                pq.push({dists_[t], t});
            }
        });
    }
    ++stats_.incremental;
    return true;
}

} // namespace gm::dyn
