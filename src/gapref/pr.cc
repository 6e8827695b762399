#include "gm/gapref/kernels.hh"

#include <cmath>

#include "gm/graph/pagerank.hh"
#include "gm/obs/trace.hh"
#include "gm/par/parallel_for.hh"

namespace gm::gapref
{

std::vector<score_t>
pagerank(const CSRGraph& g, double damping, double tolerance, int max_iters)
{
    const vid_t n = g.num_vertices();
    const score_t init_score = score_t{1} / n;
    const score_t base_score = (score_t{1} - damping) / n;
    std::vector<score_t> scores(static_cast<std::size_t>(n), init_score);
    std::vector<score_t> outgoing_contrib(static_cast<std::size_t>(n), 0);

    for (int iter = 0; iter < max_iters; ++iter) {
        par::parallel_for<vid_t>(0, n, [&](vid_t v) {
            const eid_t d = g.out_degree(v);
            outgoing_contrib[v] = d > 0 ? scores[v] / d : 0;
        }, par::Schedule::kStatic);

        const double error = par::parallel_reduce<vid_t, double>(
            0, n, 0.0,
            [&](vid_t v) {
                score_t incoming_total = 0;
                for (vid_t u : g.in_neigh(v))
                    incoming_total += outgoing_contrib[u];
                const score_t old_score = scores[v];
                scores[v] = base_score + damping * incoming_total;
                return std::fabs(scores[v] - old_score);
            },
            [](double a, double b) { return a + b; });

        obs::counter_add("iterations", 1);
        obs::counter_add("edges_traversed",
                         static_cast<std::uint64_t>(
                             g.num_edges_directed()));
        if (error < tolerance)
            break;
    }
    return scores;
}

std::vector<score_t>
pagerank_gauss_seidel(const CSRGraph& g, double damping, double tolerance,
                      int max_iters)
{
    return graph::blocked_gauss_seidel_pagerank(
        g.num_vertices(), [&](vid_t v) { return g.out_degree(v); },
        [&](vid_t v) { return g.in_neigh(v); }, damping, tolerance,
        max_iters);
}

} // namespace gm::gapref
