/**
 * @file
 * serve_read and serve_write: closed-loop serving through
 * gm::serve::Server.  One client thread per pool lane issues its next
 * operation only after the previous one returned.  Client c's i-th
 * operation is a pure function of (seed, c, i), so the operation
 * sequence is fixed by the seed however the clients interleave.
 *
 * Reads are GAP BFS/SSSP/CC/PR.  A fresh read draws a source no client
 * has used yet; one read in five instead reuses a key another client drew
 * a few operations earlier, so the result cache both hits and misses and
 * concurrent duplicates single-flight.  BFS/SSSP dominate the mix and CC/PR
 * (one key per graph, nearly always cached) stay rare, which keeps the
 * hit share near 30%: the read median is then a kernel execution, not a
 * cache lookup, and does not flip between the two from run to run.
 *
 * serve_read: one read in ten runs at full pool width, the rest at width
 * 1; one operation in 25 is a plan (64-source BFS batch, histogram, top-k).
 * serve_write: every read at width 1, no plans; one operation in ten is a
 * mutate batch of four local inserts, a quarter of them also deleting a
 * real arc.  Writes stay inside the closed loop: mutate() waits for every
 * executing leader to finish, so a paced writer beside four reading
 * clients starves (median write latency near a second) and its backlog
 * grows with the run.  Server knobs stay at their ServerOptions defaults.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

#include "gm/dyn/overlay.hh"
#include "gm/gapref/verify.hh"
#include "gm/harness/framework.hh"
#include "gm/par/thread_pool.hh"
#include "gm/plan/execute.hh"
#include "gm/plan/plan.hh"
#include "gm/serve/server.hh"

namespace gapbench
{

namespace
{

using gm::vid_t;
using gm::harness::Kernel;

constexpr Kernel kReadKernels[] = {Kernel::kBFS, Kernel::kSSSP, Kernel::kCC,
                                   Kernel::kPR};
constexpr int kPlanSources = 64;
constexpr std::size_t kMaxReadChecks = 256;
constexpr std::size_t kMaxPlanChecks = 24;
/** Windows (seconds) of the windowed end-to-end figures: long enough for
 *  ten samples beyond each reported percentile at the rates seen here
 *  (reads: thousands per window; plans and writes: a few hundred). */
constexpr double kWindow = 2.0;
constexpr double kSideWindow = 4.0;

double p50(const std::vector<double>& v) { return median(v); }
double p95(const std::vector<double>& v) { return percentile(v, 95); }
double p99(const std::vector<double>& v) { return percentile(v, 99); }

/** What the op generator needs to know about one served graph. */
struct GraphInfo
{
    std::string name;
    vid_t n = 0;
    std::vector<vid_t> sources; ///< non-isolated vertices, id order
    std::uint64_t stride = 1;   ///< coprime with sources.size()
    /** First out-neighbour of each vertex in the generated graph (the
     *  vertex itself when isolated): delete targets that are real arcs
     *  until a batch removes them. */
    std::vector<vid_t> first_out;
};

enum class OpKind { kRead, kPlan, kWrite };

struct Op
{
    OpKind kind = OpKind::kRead;
    std::size_t graph = 0;
    Kernel kernel = Kernel::kBFS;
    vid_t source = 0;
    int width = 1;
    bool check = false; ///< sampled for an answer check
    std::vector<vid_t> plan_sources;
    gm::dyn::MutationBatch batch;
};

/** The seeded operation stream: op(c, i) is pure. */
class OpStream
{
  public:
    OpStream(std::uint64_t seed, bool writes, int clients, int wide,
             const std::vector<GraphInfo>& graphs)
        : seed_(seed), writes_(writes), clients_(clients), wide_(wide),
          graphs_(graphs)
    {
    }

    Op
    op(int c, std::uint64_t i) const
    {
        const std::uint64_t h = mix(mix(seed_, c), i);
        Op op;
        const std::uint64_t kind_draw = h % 100;
        if (writes_ && kind_draw < 10) {
            op.kind = OpKind::kWrite;
            op.graph = (h >> 8) % graphs_.size();
            write_batch(op, h);
            return op;
        }
        if (!writes_ && kind_draw < 4) {
            op.kind = OpKind::kPlan;
            // One plan in four reuses another client's recent plan.
            const bool repeat = ((h >> 8) & 3) == 0;
            const auto [pc, pi] = repeat ? neighbour(c, i, h) :
                                           std::pair<int, std::uint64_t>{c, i};
            fresh_plan(op, pc, pi);
            return op;
        }
        // Reads: one in five reuses a key another client drew shortly
        // before; the rest are fresh.
        const bool repeat = ((h >> 12) % 5) == 0;
        const auto [rc, ri] = repeat ? neighbour(c, i, h) :
                                       std::pair<int, std::uint64_t>{c, i};
        fresh_read(op, rc, ri);
        op.width = (!writes_ && ((h >> 20) % 10) == 0) ? wide_ : 1;
        // Sparse enough that the capped sample spreads over the run: a
        // sampled read on serve_write may wait for an in-flight mutate.
        op.check = ((h >> 24) % 64) == 0;
        return op;
    }

  private:
    /** A key drawn by another client 1..16 operations before index i. */
    std::pair<int, std::uint64_t>
    neighbour(int c, std::uint64_t i, std::uint64_t h) const
    {
        const int other =
            clients_ > 1
                ? (c + 1 + static_cast<int>((h >> 32) % (clients_ - 1))) %
                      clients_
                : c;
        const std::uint64_t back = 1 + (h >> 40) % 16;
        return {other, i > back ? i - back : 0};
    }

    /** Globally unique fresh-key index of client c's op i. */
    std::uint64_t
    key(int c, std::uint64_t i) const
    {
        return i * static_cast<std::uint64_t>(clients_) +
               static_cast<std::uint64_t>(c);
    }

    vid_t
    source(const GraphInfo& g, std::uint64_t k) const
    {
        return g.sources[(k * g.stride + (seed_ % g.sources.size())) %
                         g.sources.size()];
    }

    void
    fresh_read(Op& op, int c, std::uint64_t i) const
    {
        const std::uint64_t h = mix(mix(seed_ ^ 0x72656164ULL, c), i);
        op.kind = OpKind::kRead;
        op.graph = h % graphs_.size();
        const std::uint64_t k = (h >> 16) % 100;
        // 45% BFS, 45% SSSP, 5% CC, 5% PR.
        op.kernel = k < 45 ? kReadKernels[0]
                  : k < 90 ? kReadKernels[1]
                  : k < 95 ? kReadKernels[2]
                           : kReadKernels[3];
        op.source = source(graphs_[op.graph], key(c, i));
    }

    void
    fresh_plan(Op& op, int c, std::uint64_t i) const
    {
        const std::uint64_t h = mix(mix(seed_ ^ 0x706c616eULL, c), i);
        op.graph = h % graphs_.size();
        op.check = ((h >> 16) % 4) == 0;
        const GraphInfo& g = graphs_[op.graph];
        for (int s = 0; s < kPlanSources; ++s)
            op.plan_sources.push_back(
                source(g, key(c, i) * kPlanSources + s));
    }

    void
    write_batch(Op& op, std::uint64_t h) const
    {
        const GraphInfo& g = graphs_[op.graph];
        const auto n = static_cast<std::uint64_t>(g.n);
        std::uint64_t r = mix(h, 0x77726974ULL);
        // Local inserts (ids within 16 of each other) keep high-diameter
        // graphs high-diameter however many batches a run applies.
        for (int e = 0; e < 4; ++e) {
            r = mix(r, e);
            const auto u = static_cast<vid_t>(r % n);
            const auto v =
                static_cast<vid_t>((u + 1 + (r >> 32) % 16) % n);
            op.batch.insert(u, v);
        }
        if (((h >> 16) & 3) == 0) {
            const vid_t u = source(g, h >> 20);
            op.batch.erase(u, g.first_out[static_cast<std::size_t>(u)]);
        }
    }

    std::uint64_t seed_;
    bool writes_;
    int clients_;
    int wide_;
    const std::vector<GraphInfo>& graphs_;
};

struct ReadSample
{
    double at = 0;         ///< completion, seconds into the measurement
    double latency_ms = 0; ///< client-measured; infinite when failed
    Kernel kernel = Kernel::kBFS;
    std::size_t graph = 0;
    int width = 1;
    bool ok = false;
    bool traced = false;
    gm::serve::QueryResult result;
};

struct PlanSample
{
    double at = 0;
    double latency_ms = 0;
    std::size_t graph = 0;
    bool ok = false;
    double execute_ms = 0;
    int nodes = 0;
    gm::serve::PlanResult result;
};

struct WriteSample
{
    double at = 0;
    double latency_ms = 0;
    std::size_t graph = 0;
    bool ok = false;
    double mutate_ms = 0;
    double quiesce_ms = 0;
    double dirty_fraction = 0;
};

/** A sampled read kept for its answer check, with the graph it was
 *  computed on pinned. */
struct ReadCheck
{
    Kernel kernel = Kernel::kBFS;
    vid_t source = 0;
    std::size_t graph = 0;
    std::uint64_t generation = 0;
    std::shared_ptr<const gm::serve::ResultValue> value;
    std::shared_ptr<const gm::graph::CSRGraph> g;
    std::shared_ptr<const gm::graph::WCSRGraph> wg;
};

struct PlanCheck
{
    std::size_t graph = 0;
    gm::plan::Plan plan;
    gm::serve::PlanResult result;
};

/** Per-client record of what it did. */
struct ClientLog
{
    std::vector<ReadSample> reads;
    std::vector<PlanSample> plans;
    std::vector<WriteSample> writes;
    std::vector<ReadCheck> read_checks;
    std::vector<PlanCheck> plan_checks;
    std::uint64_t unverifiable = 0; ///< sampled reads outrun by a mutation
    std::string first_error;        ///< status of the first failed op
};

/** Remember the first failure a client saw, for the run's notes. */
template <typename T>
void
note_failure(ClientLog& log, const gm::support::StatusOr<T>& res)
{
    if (log.first_error.empty())
        log.first_error = res.is_ok() ? "malformed answer"
                                      : res.status().to_string();
}

gm::plan::Plan
make_plan(const Op& op)
{
    gm::plan::Plan plan;
    const int batch = plan.add_batch(Kernel::kBFS, op.plan_sources);
    plan.add_histogram(batch, 16);
    plan.add_top_k(batch, 8);
    return plan;
}

std::string
kernel_token(Kernel k)
{
    return token(gm::harness::to_string(k));
}

/** Check one answer with the gapref verifiers; "" when it passes. */
std::string
verify_read(Kernel kernel, vid_t source, const gm::serve::ResultValue& value,
            const gm::graph::CSRGraph& g, const gm::graph::WCSRGraph* wg)
{
    std::string err;
    bool ok = false;
    switch (kernel) {
      case Kernel::kBFS:
        ok = gm::gapref::verify_bfs(
            g, source, std::get<std::vector<std::int32_t>>(value), &err);
        break;
      case Kernel::kSSSP:
        ok = wg != nullptr &&
             gm::gapref::verify_sssp(
                 *wg, source, std::get<std::vector<std::int32_t>>(value),
                 &err);
        break;
      case Kernel::kCC:
        ok = gm::gapref::verify_cc(
            g, std::get<std::vector<std::int32_t>>(value), &err);
        break;
      case Kernel::kPR:
        ok = gm::gapref::verify_pagerank(
            g, std::get<std::vector<gm::score_t>>(value), 0.85, 1e-4, &err);
        break;
      default:
        err = "unexpected kernel";
    }
    return ok ? "" : (err.empty() ? "mismatch" : err);
}

bool
holds_expected_type(Kernel kernel, const gm::serve::ResultValue& value)
{
    return kernel == Kernel::kPR
               ? std::holds_alternative<std::vector<gm::score_t>>(value)
               : std::holds_alternative<std::vector<std::int32_t>>(value);
}

} // namespace

void
run_serve(const Options& opt, bool writes, Report& report, Tracer& tracer)
{
    const int pool = gm::par::ThreadPool::instance().num_threads();
    const int clients = pool;

    // Set-up: suite generation + derived forms + server start, repeated;
    // the last server is the one measured.
    std::vector<double> setup_s, generate_s, forms_s;
    gm::harness::DatasetSuite suite;
    std::unique_ptr<gm::serve::Server> server;
    for (int r = 0; r < opt.setup_repeats; ++r) {
        server.reset();
        suite = {};
        Tracer::Scope span(tracer, "bench.setup", 0);
        const double t0 = now_seconds();
        {
            Tracer::Scope g(tracer, "graph.generate", 0);
            suite = make_suite(opt.serve_scale, opt.seed);
        }
        const double t1 = now_seconds();
        {
            Tracer::Scope f(tracer, "store.forms", 0);
            warm_forms(suite);
        }
        const double t2 = now_seconds();
        {
            Tracer::Scope s(tracer, "serve.start", 0);
            server = std::make_unique<gm::serve::Server>(
                suite, gm::harness::make_frameworks());
        }
        const double t3 = now_seconds();
        generate_s.push_back(t1 - t0);
        forms_s.push_back(t2 - t1);
        setup_s.push_back(t3 - t0);
    }
    report.set("setup_s", median(setup_s));
    report.set("graph.generate_s", median(generate_s));
    report.set("store.forms_s", median(forms_s));
    report.set("store.resident_mb",
               static_cast<double>(suite.bytes_resident()) / (1 << 20));

    std::vector<GraphInfo> graphs;
    for (const auto& ds : suite.datasets) {
        GraphInfo g;
        g.name = ds->name;
        g.n = ds->g().num_vertices();
        for (vid_t v = 0; v < g.n; ++v) {
            const auto out = ds->g().out_neigh(v);
            g.first_out.push_back(out.empty() ? v : out[0]);
            if (!out.empty())
                g.sources.push_back(v);
        }
        if (g.sources.empty())
            g.sources.push_back(0);
        g.stride = 0x9e3779b1ULL % g.sources.size();
        while (std::gcd(g.stride, g.sources.size()) != 1)
            ++g.stride;
        graphs.push_back(std::move(g));
    }
    const OpStream stream(opt.seed, writes, clients, pool, graphs);

    // The operation sequence's identity: the first 256 ops per client.
    std::uint64_t h = mix(writes ? 0x7772ULL : 0x7264ULL, clients);
    auto hash_op = [&h](const Op& op) {
        h = mix(h, static_cast<std::uint64_t>(op.kind) * 131 + op.graph);
        h = mix(h, static_cast<std::uint64_t>(op.kernel) * 7919 +
                       static_cast<std::uint64_t>(op.source) * 3 +
                       static_cast<std::uint64_t>(op.width));
        for (vid_t s : op.plan_sources)
            h = mix(h, static_cast<std::uint64_t>(s));
        for (const auto& e : op.batch.inserts)
            h = mix(h, (static_cast<std::uint64_t>(e.u) << 32) | e.v);
        for (const auto& e : op.batch.deletes)
            h = mix(h, ~((static_cast<std::uint64_t>(e.u) << 32) | e.v));
    };
    for (std::uint64_t i = 0; i < 256; ++i)
        for (int c = 0; c < clients; ++c)
            hash_op(stream.op(c, i));
    for (const auto& ds : suite.datasets)
        h = mix(h, ds->store()->fingerprint());
    report.op_hash = h;

    // Serializes the benchmark's own mutate() calls with the pinning of
    // a sampled read's graph, so a pinned base is exactly the generation
    // the answer names.  The server serializes mutations internally too.
    std::mutex mutate_mu;
    std::atomic<std::size_t> read_checks_taken{0};
    std::atomic<std::size_t> plan_checks_taken{0};
    std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
    Tracer untraced(false);
    const double start = now_seconds();
    const double deadline = start + opt.seconds;

    auto client = [&](int c) {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        for (std::uint64_t i = 0; now_seconds() < deadline; ++i) {
            const Op op = stream.op(c, i);
            const bool traced = opt.trace && i % 2 == 0;
            Tracer& t = traced ? tracer : untraced;
            const std::uint64_t rid =
                (static_cast<std::uint64_t>(c) << 40) | i;
            Tracer::Scope span(t, "bench.op", rid);
            const gm::harness::Dataset& ds = suite[op.graph];
            if (op.kind == OpKind::kRead) {
                gm::serve::Request req;
                req.kernel = op.kernel;
                req.graph = ds.name;
                req.source = op.source;
                req.width = op.width;
                ReadSample s;
                const double t0 = now_seconds();
                auto res = [&] {
                    Tracer::Scope q(t, "serve.query", rid);
                    return server->query(req);
                }();
                const double t1 = now_seconds();
                s.ok = res.is_ok() && res->value != nullptr &&
                       holds_expected_type(op.kernel, *res->value);
                if (!s.ok)
                    note_failure(log, res);
                s.latency_ms = s.ok ? (t1 - t0) * 1e3 : HUGE_VAL;
                s.at = t1 - start;
                s.kernel = op.kernel;
                s.graph = op.graph;
                s.width = op.width;
                s.traced = traced;
                if (s.ok)
                    s.result = *res;
                if (s.ok && op.check &&
                    read_checks_taken.fetch_add(1) < kMaxReadChecks) {
                    Tracer::Scope k(t, "check.capture", rid);
                    ReadCheck rc{op.kernel, op.source, op.graph,
                                 res->generation, res->value, {}, {}};
                    const auto& store = ds.store();
                    std::lock_guard<std::mutex> lock(mutate_mu);
                    if (store->generation() == res->generation) {
                        rc.g = store->base_ptr();
                        if (op.kernel == Kernel::kSSSP)
                            rc.wg = store->weighted();
                        log.read_checks.push_back(std::move(rc));
                    } else {
                        ++log.unverifiable;
                    }
                }
                s.result.value.reset(); // keep only the metadata
                log.reads.push_back(std::move(s));
            } else if (op.kind == OpKind::kPlan) {
                gm::serve::PlanRequest req;
                req.graph = ds.name;
                req.plan = make_plan(op);
                PlanSample s;
                s.graph = op.graph;
                const double t0 = now_seconds();
                auto res = [&] {
                    Tracer::Scope q(t, "serve.run_plan", rid);
                    return server->run_plan(req);
                }();
                const double t1 = now_seconds();
                s.ok = res.is_ok() &&
                       res->nodes.size() ==
                           static_cast<std::size_t>(req.plan.size());
                if (!s.ok)
                    note_failure(log, res);
                s.latency_ms = s.ok ? (t1 - t0) * 1e3 : HUGE_VAL;
                s.at = t1 - start;
                if (s.ok) {
                    for (const auto& node : res->nodes)
                        s.execute_ms += node.execute_seconds * 1e3;
                    s.nodes = static_cast<int>(res->nodes.size());
                    s.result = *res;
                    if (op.check &&
                        plan_checks_taken.fetch_add(1) < kMaxPlanChecks)
                        log.plan_checks.push_back(
                            {op.graph, req.plan, *res});
                    for (auto& node : s.result.nodes)
                        node.value.reset();
                }
                log.plans.push_back(std::move(s));
            } else {
                WriteSample s;
                s.graph = op.graph;
                const double t0 = now_seconds();
                std::lock_guard<std::mutex> lock(mutate_mu);
                Tracer::Scope q(t, "serve.mutate", rid);
                const double t1 = now_seconds();
                auto res = server->mutate(ds.name, op.batch);
                const double t2 = now_seconds();
                s.ok = res.is_ok();
                if (!s.ok)
                    note_failure(log, res);
                s.latency_ms = s.ok ? (t2 - t0) * 1e3 : HUGE_VAL;
                s.at = t2 - start;
                if (s.ok) {
                    s.mutate_ms = res->mutate_seconds * 1e3;
                    s.quiesce_ms =
                        std::max(0.0, (t2 - t1) - res->mutate_seconds) * 1e3;
                    s.dirty_fraction = res->dirty_fraction;
                }
                log.writes.push_back(s);
            }
        }
    };
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c)
            threads.emplace_back(client, c);
        for (auto& th : threads)
            th.join();
    }
    const double elapsed = now_seconds() - start;
    const gm::serve::ServerStats stats = server->stats_snapshot();

    // Merge the client logs.
    std::vector<ReadSample> reads;
    std::vector<PlanSample> plans;
    std::vector<WriteSample> wr;
    std::uint64_t unverifiable = 0;
    for (ClientLog& log : logs) {
        reads.insert(reads.end(), log.reads.begin(), log.reads.end());
        plans.insert(plans.end(), log.plans.begin(), log.plans.end());
        wr.insert(wr.end(), log.writes.begin(), log.writes.end());
        unverifiable += log.unverifiable;
    }
    std::uint64_t failed_ops = 0;
    for (const auto& s : reads) {
        report.attempt(s.ok);
        failed_ops += s.ok ? 0 : 1;
    }
    for (const auto& s : plans) {
        report.attempt(s.ok);
        failed_ops += s.ok ? 0 : 1;
    }
    for (const auto& s : wr) {
        report.attempt(s.ok);
        failed_ops += s.ok ? 0 : 1;
    }

    // Answer checks, outside the timed region.
    {
        Tracer::Scope span(tracer, "check.answers", 0);
        const gm::harness::Framework gap =
            gm::harness::make_frameworks()[gm::harness::kGapIndex];
        for (ClientLog& log : logs) {
            if (!log.first_error.empty())
                report.note("first failed operation: " + log.first_error);
            for (const ReadCheck& rc : log.read_checks) {
                ++report.checks;
                const auto& ds = suite[rc.graph];
                const std::string err = verify_read(
                    rc.kernel, rc.source, *rc.value, *rc.g, rc.wg.get());
                if (!err.empty())
                    report.check_failed(
                        "served " + kernel_token(rc.kernel) + " on " +
                        ds.name + " generation " +
                        std::to_string(rc.generation) + ": " + err);
            }
            for (const PlanCheck& pc : log.plan_checks) {
                ++report.checks;
                const auto& ds = suite[pc.graph];
                if (pc.result.generation != 0) {
                    report.check_failed("plan on " + ds.name +
                                        " answered at a later generation");
                    continue;
                }
                gm::plan::Context ctx{&ds, &gap,
                                      gm::harness::Mode::kBaseline};
                auto oracle = gm::plan::execute(pc.plan, ctx);
                bool same = oracle.is_ok() &&
                            oracle->size() == pc.result.nodes.size();
                for (std::size_t n = 0; same && n < oracle->size(); ++n)
                    same = pc.result.nodes[n].value != nullptr &&
                           *pc.result.nodes[n].value == (*oracle)[n];
                if (!same)
                    report.check_failed("plan on " + ds.name +
                                        " differs from plan::execute");
            }
        }
        if (writes) {
            // Final generation: every graph, every read kernel, answered
            // fresh and checked against the store's current graph.
            for (std::size_t g = 0; g < suite.size(); ++g) {
                const auto& ds = suite[g];
                for (Kernel k : kReadKernels) {
                    gm::serve::Request req;
                    req.kernel = k;
                    req.graph = ds.name;
                    req.source = graphs[g].sources.front();
                    auto res = server->query(req);
                    const bool ok = res.is_ok() && res->value != nullptr &&
                                    holds_expected_type(k, *res->value) &&
                                    res->generation ==
                                        ds.store()->generation();
                    report.attempt(ok);
                    ++report.checks;
                    if (!ok) {
                        report.check_failed("final " + kernel_token(k) +
                                            " on " + ds.name +
                                            " not served fresh");
                        continue;
                    }
                    const auto wg = ds.store()->weighted();
                    const std::string err =
                        verify_read(k, req.source, *res->value,
                                    *ds.store()->base_ptr(), wg.get());
                    if (!err.empty())
                        report.check_failed("final " + kernel_token(k) +
                                            " on " + ds.name + ": " + err);
                }
            }
        }
    }
    server->shutdown();

    // End-to-end.  main = reads; side = plans (serve_read) or writes.
    // Rates and percentiles are medians over 2-second windows.
    std::vector<Stamped> read_ms, read_done;
    std::map<std::pair<int, std::size_t>, std::vector<double>> read_class;
    for (const auto& s : reads) {
        read_ms.push_back({s.at, s.latency_ms});
        if (s.ok) {
            read_done.push_back({s.at, 1});
            read_class[{static_cast<int>(s.kernel), s.graph}].push_back(
                s.latency_ms);
        }
    }
    const std::size_t reads_ok = read_done.size();
    std::vector<double> class_medians;
    for (const auto& [key, v] : read_class)
        class_medians.push_back(median(v));
    report.set("main_per_s",
               window_median(read_done, kWindow, elapsed,
                             [](const std::vector<double>& v) {
                                 return static_cast<double>(v.size()) /
                                        kWindow;
                             }));
    report.set("main_p50_ms",
               window_median(read_ms, kWindow, elapsed, p50));
    report.set("main_p99_ms",
               window_median(read_ms, kWindow, elapsed, p99));
    report.set("main_geomean_ms", geomean(class_medians));

    std::vector<Stamped> side_ms;
    std::map<std::size_t, std::vector<double>> side_class;
    auto add_side = [&](const auto& s) {
        side_ms.push_back({s.at, s.latency_ms});
        if (s.ok)
            side_class[s.graph].push_back(s.latency_ms);
    };
    for (const auto& s : plans)
        add_side(s);
    for (const auto& s : wr)
        add_side(s);
    std::vector<double> side_medians;
    for (const auto& [g, v] : side_class)
        side_medians.push_back(median(v));
    report.set("side_p50_ms",
               window_median(side_ms, kSideWindow, elapsed, p50));
    report.set("side_p95_ms",
               window_median(side_ms, kSideWindow, elapsed, p95));
    report.set("side_geomean_ms", geomean(side_medians));

    // serve layer.
    std::vector<double> submit_us, queue_ms, lane_wait_ms, exec_ms,
        efficiency, wide_eff, traced_ms, untraced_ms;
    std::uint64_t hits = 0, joins = 0, leaders = 0, lanes = 0;
    // Leader execute times by (kernel, graph), all widths and width 1.
    std::map<std::pair<int, std::size_t>, std::vector<double>> exec_all,
        exec_serial, exec_wide;
    for (const auto& s : reads) {
        if (!s.ok)
            continue;
        (s.traced ? traced_ms : untraced_ms).push_back(s.latency_ms);
        const auto& r = s.result;
        submit_us.push_back(
            std::max(0.0, s.latency_ms * 1e3 - r.service_seconds * 1e6));
        queue_ms.push_back(r.queue_seconds * 1e3);
        hits += r.cache_hit ? 1 : 0;
        joins += r.shared_execution ? 1 : 0;
        if (r.lanes > 0 && !r.cache_hit && !r.shared_execution) {
            ++leaders;
            lanes += static_cast<std::uint64_t>(r.lanes);
            const double e = r.execute_seconds * 1e3;
            exec_ms.push_back(e);
            lane_wait_ms.push_back(std::max(
                0.0, (r.service_seconds - r.queue_seconds -
                      r.execute_seconds) * 1e3));
            efficiency.push_back(r.parallel_efficiency);
            const std::pair<int, std::size_t> key{static_cast<int>(s.kernel),
                                                  s.graph};
            exec_all[key].push_back(e);
            if (s.width == 1)
                exec_serial[key].push_back(e);
            else {
                exec_wide[key].push_back(e);
                wide_eff.push_back(r.parallel_efficiency);
            }
        }
    }
    report.set("serve.submit_p50_us", median(submit_us));
    report.set("serve.queue_wait_p50_ms", median(queue_ms));
    report.set("serve.queue_wait_p99_ms", percentile(queue_ms, 99));
    report.set("serve.lane_wait_p99_ms", percentile(lane_wait_ms, 99));
    report.set("serve.execute_p50_ms", median(exec_ms));
    report.set("serve.execute_p99_ms", percentile(exec_ms, 99));
    report.set("serve.cache_hit_ratio",
               reads_ok ? static_cast<double>(hits) / reads_ok : 0.0);
    report.set("serve.single_flight_joins", static_cast<double>(joins));
    report.set("serve.lanes_per_execution",
               leaders ? static_cast<double>(lanes) / leaders : 0.0);
    report.set("serve.wide_efficiency", median(wide_eff));
    report.set("serve.shed", static_cast<double>(stats.shed));
    report.set("serve.failed", static_cast<double>(failed_ops));
    report.set("par.efficiency", median(efficiency));
    int slower = 0;
    for (const auto& [key, wide] : exec_wide) {
        const auto it = exec_serial.find(key);
        if (it != exec_serial.end() && median(wide) > median(it->second))
            ++slower;
    }
    report.set("par.cells_slower_than_serial", slower);
    report.set("trace.overhead_pct",
               traced_ms.empty() || untraced_ms.empty()
                   ? 0.0
                   : (median(traced_ms) / median(untraced_ms) - 1.0) * 100);

    // kernel layer as served: GAP BFS/SSSP/CC/PR only.
    auto class_geomean = [](const auto& classes, auto&& pick) {
        std::vector<double> v;
        for (const auto& [key, samples] : classes)
            if (pick(key))
                v.push_back(median(samples));
        return geomean(v);
    };
    for (const MetricDecl& d : per_layer_metrics()) {
        const std::string name = d.name;
        if (name.rfind("kernel.", 0) == 0)
            report.set(name, 0);
    }
    auto any = [](const auto&) { return true; };
    report.set("kernel.gap_ms", class_geomean(exec_all, any));
    report.set("kernel.gap_serial_ms", class_geomean(exec_serial, any));
    for (Kernel k : kReadKernels) {
        auto pick = [k](const auto& key) {
            return key.first == static_cast<int>(k);
        };
        report.set("kernel." + kernel_token(k) + "_ms",
                   class_geomean(exec_all, pick));
        report.set("kernel." + kernel_token(k) + "_serial_ms",
                   class_geomean(exec_serial, pick));
    }
    for (std::size_t g = 0; g < suite.size(); ++g) {
        auto pick = [g](const auto& key) { return key.second == g; };
        report.set("kernel." + token(suite[g].name) + "_ms",
                   class_geomean(exec_all, pick));
        report.set("kernel." + token(suite[g].name) + "_serial_ms",
                   class_geomean(exec_serial, pick));
    }

    // dyn layer.
    std::vector<double> mutate_ms, quiesce_ms, dirty;
    for (const auto& s : wr) {
        if (!s.ok)
            continue;
        mutate_ms.push_back(s.mutate_ms);
        quiesce_ms.push_back(s.quiesce_ms);
        dirty.push_back(s.dirty_fraction);
    }
    report.set("dyn.mutate_p50_ms", median(mutate_ms));
    report.set("dyn.mutate_p99_ms", percentile(mutate_ms, 99));
    report.set("dyn.quiesce_p50_ms", median(quiesce_ms));
    report.set("dyn.quiesce_p99_ms", percentile(quiesce_ms, 99));
    report.set("dyn.compactions", static_cast<double>(stats.compactions));
    const std::uint64_t repairs = stats.dyn_incremental + stats.dyn_full;
    report.set("dyn.incremental_share",
               repairs ? static_cast<double>(stats.dyn_incremental) / repairs
                       : 0.0);
    report.set("dyn.dirty_fraction", median(dirty));

    // plan layer.
    std::vector<double> plan_exec;
    std::uint64_t nodes = 0, node_hits = 0, shared = 0, sweeps = 0,
                  fused = 0;
    for (const auto& s : plans) {
        if (!s.ok)
            continue;
        plan_exec.push_back(s.execute_ms);
        nodes += static_cast<std::uint64_t>(s.nodes);
        node_hits += static_cast<std::uint64_t>(s.result.cache_hits);
        shared += static_cast<std::uint64_t>(s.result.shared);
        sweeps += static_cast<std::uint64_t>(s.result.fused_sweeps);
        fused += static_cast<std::uint64_t>(s.result.sources_fused);
    }
    report.set("plan.execute_p50_ms", median(plan_exec));
    report.set("plan.node_cache_hit_ratio",
               nodes ? static_cast<double>(node_hits) / nodes : 0.0);
    report.set("plan.sources_per_sweep",
               sweeps ? static_cast<double>(fused) / sweeps : 0.0);
    report.set("plan.shared_nodes", static_cast<double>(shared));

    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: scale %d, %d clients, %.1f s measured: %zu reads, "
                  "%zu plans, %zu writes; %llu sampled read(s) not checked "
                  "because a mutation replaced their generation first",
                  writes ? "serve_write" : "serve_read", opt.serve_scale,
                  clients, elapsed, reads.size(), plans.size(), wr.size(),
                  static_cast<unsigned long long>(unverifiable));
    report.note(line);
}

} // namespace gapbench
