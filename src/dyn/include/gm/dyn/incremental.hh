/**
 * @file
 * Incremental kernel maintenance over gm::dyn GraphViews.
 *
 * The gm::dyn canonical kernels are defined by *unique fixed points* so a
 * repaired result is provably equal to a full recompute — not merely
 * equivalent up to tie-breaking, which is what makes "incremental is
 * bit-identical to full" testable:
 *
 *  - cc_labels:  label = minimum vertex id in the weakly-connected
 *                component (the Afforest result after full compression,
 *                with min-id roots);
 *  - bfs_depths: hop distance from the source (-1 unreached);
 *  - sssp_dists: shortest weighted distance from the source, with the
 *                store's deterministic pair weights (kInfWeight
 *                unreached).
 *
 * Each maintainer keeps the previous result and repairs it from a
 * BatchEffect: CC re-links the batch-touched endpoints (union by min
 * label, then one relabel pass — skipped entirely when no insert joins
 * two components); BFS/SSSP re-trigger monotone relaxation from endpoints
 * a new arc improved.  Every maintainer falls back to full recompute on
 * any effective delete, since deletions break the monotone-repair
 * arguments, and when the dirty set exceeds its threshold.  Decisions
 * are deterministic (pure functions of the effect), so repaired results
 * are bit-identical across GM_THREADS.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gm/dyn/overlay.hh"

namespace gm::dyn
{

/** Canonical connected components: min vertex id per component (weakly
 *  connected for directed graphs). */
std::vector<vid_t> cc_labels(const GraphView& view);

/** Canonical BFS depths from @p source (-1 unreached); follows out-arcs. */
std::vector<vid_t> bfs_depths(const GraphView& view, vid_t source);

/** Canonical SSSP distances from @p source using the deterministic
 *  graph::pair_weight weights (kInfWeight unreached); follows out-arcs. */
std::vector<weight_t> sssp_dists(const GraphView& view, vid_t source,
                                 std::uint64_t weight_seed);

/** Incremental-vs-full decision counters, exported as gm_dyn_* metrics. */
struct MaintainerStats
{
    std::uint64_t incremental = 0; ///< batches repaired in place
    std::uint64_t full = 0;        ///< batches that fell back to recompute
    double last_dirty_fraction = 0.0;
};

/** Shared threshold policy: repair only below this |dirty|/n fraction. */
struct MaintainerOptions
{
    double full_threshold = 0.05;
};

/** Incremental connected components (Afforest-style re-linking). */
class CCMaintainer
{
  public:
    explicit CCMaintainer(const MaintainerOptions& opts = {}) : opts_(opts) {}

    /** Full recompute against @p view (also the fallback path). */
    void rebuild(const GraphView& view);

    /** Repair after one applied batch.  @return true when the
     *  incremental path was taken (false: fell back to rebuild). */
    bool update(const GraphView& view, const BatchEffect& effect);

    const std::vector<vid_t>& labels() const { return labels_; }
    const MaintainerStats& stats() const { return stats_; }

  private:
    MaintainerOptions opts_;
    std::vector<vid_t> labels_;
    MaintainerStats stats_;
};

/** Incremental BFS depths from a fixed source. */
class BfsMaintainer
{
  public:
    explicit BfsMaintainer(vid_t source, const MaintainerOptions& opts = {})
        : source_(source), opts_(opts)
    {
    }

    void rebuild(const GraphView& view);
    bool update(const GraphView& view, const BatchEffect& effect);

    const std::vector<vid_t>& depths() const { return depths_; }
    const MaintainerStats& stats() const { return stats_; }

  private:
    vid_t source_;
    MaintainerOptions opts_;
    std::vector<vid_t> depths_;
    MaintainerStats stats_;
};

/** Incremental SSSP distances from a fixed source. */
class SsspMaintainer
{
  public:
    SsspMaintainer(vid_t source, std::uint64_t weight_seed,
                   const MaintainerOptions& opts = {})
        : source_(source), weight_seed_(weight_seed), opts_(opts)
    {
    }

    void rebuild(const GraphView& view);
    bool update(const GraphView& view, const BatchEffect& effect);

    const std::vector<weight_t>& dists() const { return dists_; }
    const MaintainerStats& stats() const { return stats_; }

  private:
    vid_t source_;
    std::uint64_t weight_seed_;
    MaintainerOptions opts_;
    std::vector<weight_t> dists_;
    MaintainerStats stats_;
};

} // namespace gm::dyn
