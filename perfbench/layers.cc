#include <algorithm>
#include <cstdio>
#include <map>

#include "baseline/ivf.hh"
#include "bench.hh"
#include "gvml/microcode.hh"
#include "kernels/rag.hh"

namespace perfbench {

using namespace cisram;

namespace {

struct Probe
{
    kernels::RagStageLatency stages;
    double hostMsPerQuery = 0;
};

/**
 * RagRetriever::retrieveBatch on shard 0 with the nominal trace's
 * first `batch` queries, configured as the shard servers call it.
 */
Probe
probeRetrieve(const Workload &w, const Point &pt, bool functional,
              size_t batch, Tracer &tr)
{
    const WorkloadConfig &c = w.config();
    apu::ApuDevice dev;
    if (!functional)
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    kernels::RagRetriever ret(dev, hbm, w.shardSpec(0), c.fleet.topK, 0);

    std::vector<std::vector<int16_t>> qs;
    for (size_t i = 0; i < batch; ++i)
        qs.push_back(w.query(pt.traffic.trace.arrivals[i]).vec);
    kernels::RagBatchOptions opts;
    opts.overlapStream = c.fleet.server.overlapStream;
    opts.search.nprobe = c.nprobe;
    if (c.nprobe > 0)
        opts.ivf = pt.router->server(pt.router->placement()[0][0], 0)
                       ->clustering();

    Probe p;
    Clock::time_point t0 = Clock::now();
    Scope s(&tr, functional ? "kernels.probe_functional"
                            : "kernels.probe_timing");
    p.stages = ret.retrieveBatch(qs, w.corpusSeed(), opts)[0].stages;
    p.hostMsPerQuery = since(t0) * 1e3 / static_cast<double>(batch);
    return p;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/**
 * Mean host time per pumpUntil call over the last tenth of the nominal
 * point's arrivals, divided by the same over the first tenth.
 */
double
pumpGrowth(const Measured &m, const Tracer &tr)
{
    // One pump span per arrival, rate points in order.
    std::vector<double> all = tr.durations("fleet.pump");
    size_t first = 0;
    for (size_t i = 0; i < m.nominal; ++i)
        first += m.traced.points[i].served.offered;
    size_t n = m.traced.points[m.nominal].served.offered;
    size_t tenth = std::max<size_t>(1, n / 10);
    double head = 0, tail = 0;
    for (size_t i = 0; i < tenth; ++i) {
        head += all[first + i];
        tail += all[first + n - 1 - i];
    }
    return ratio(tail, head);
}

} // namespace

std::vector<Metric>
layerMetrics(const Workload &w, const Measured &m, const Verified &v,
             const Checks &chk, Tracer &tr)
{
    const WorkloadConfig &c = w.config();
    const Pass &p0 = m.passes[0];
    const Point &tnom = m.traced.points[m.nominal];
    fleet::Router &router = *tnom.router;

    // Set-up work the Router does internally, timed by calling the
    // same baseline functions directly on the router's shard specs.
    double kmeans_s = 0;
    if (c.fleet.server.ivf.enabled) {
        Clock::time_point t0 = Clock::now();
        Scope s(&tr, "baseline.kmeans");
        for (unsigned sh = 0; sh < c.fleet.shards; ++sh)
            baseline::IvfClustering::build(w.shardSpec(sh), w.corpusSeed(),
                                           c.fleet.server.ivf.build);
        kmeans_s = since(t0);
    }
    if (c.fleet.functional && c.nprobe == 0) {
        // The IVF workload built its flats while verifying.
        Scope s(&tr, "baseline.flat_build");
        ShardFlats sf(w);
    }

    Probe b1 = probeRetrieve(w, tnom, false, 1, tr);
    Probe b8 = probeRetrieve(w, tnom, false, 8, tr);
    // A functional pass over a 400K-chunk shard takes minutes; the
    // functional probe runs only where the workload is functional.
    Probe f8;
    if (c.fleet.functional)
        f8 = probeRetrieve(w, tnom, true, 8, tr);

    // Simulated split of the nominal point, and the servers' counters.
    std::vector<double> gather, merge, fabric, wait;
    for (const fleet::FleetOutcome &o : tnom.served.outcomes)
        if (o.ok) {
            gather.push_back(o.gatherSeconds * 1e3);
            merge.push_back(o.hostSeconds * 1e3);
            fabric.push_back(o.fabricSeconds * 1e3);
        }
    double admitted = 0, batches = 0, resets = 0, replayed = 0, trips = 0,
           restage = 0, hbm_bytes = 0, row_hits = 0, row_miss = 0;
    for (unsigned d = 0; d < router.devices(); ++d)
        for (unsigned sh = 0; sh < router.shards(); ++sh) {
            kernels::DeviceServer *srv = router.server(d, sh);
            if (!srv)
                continue;
            admitted += srv->former().admitted();
            batches += srv->former().batchesFormed();
            resets += srv->resets();
            replayed += srv->replayedQueries();
            trips += srv->breaker().trips();
            restage += srv->restageBytes();
            const dram::DramStats &hs = srv->hbm().stats();
            hbm_bytes += static_cast<double>(hs.reads) *
                srv->hbm().config().burstBytes();
            row_hits += hs.rowHits;
            row_miss += hs.rowMisses;
            // Shard queue wait, from the server's flight ledger (the
            // fleet outcome folds it into the gather path).
            for (const obs::QueryFlight &f :
                 srv->flightRecorder().flights()) {
                const obs::QueryFlight::Round *r = f.finalRound();
                if (!f.delivered || !r)
                    continue;
                double wsum = 0;
                for (const obs::Span &sp : r->spans)
                    if (obs::stageCategory(sp.stage) ==
                        obs::SpanCategory::Wait)
                        wsum += sp.durationSeconds;
                wait.push_back(wsum * 1e3);
            }
        }
    Dist dg = Dist::of(gather), dm = Dist::of(merge),
         df = Dist::of(fabric), dw = Dist::of(wait);
    double busy_max = 0, busy_sum = 0;
    for (unsigned d = 0; d < router.devices(); ++d) {
        busy_max = std::max(busy_max, router.deviceBusySeconds(d));
        busy_sum += router.deviceBusySeconds(d);
    }

    double offered = 0, admitted_all = 0, delivered = 0, lag = 0;
    for (const Point &pt : m.traced.points) {
        offered += pt.served.offered;
        admitted_all += pt.served.admitted;
        for (const fleet::FleetOutcome &o : pt.served.outcomes) {
            delivered += o.ok;
            lag = std::max(lag, o.admitSeconds -
                                    pt.traffic.trace.arrivals[o.id - 1].seconds);
        }
    }
    gvml::McPlanCacheStats pc = gvml::mcPlanCacheStats();
    std::map<std::string, double> totals = tr.totalSeconds();
    auto per_query_ms = [&](const char *span, uint64_t n) {
        return ratio(totals[span] * 1e3, static_cast<double>(n));
    };

    std::printf("traced pass: %.3f s serving vs %.3f s untraced\n",
                m.traced.serveSeconds, p0.serveSeconds);
    std::printf("self time by span (s):\n");
    for (const auto &[name, secs] : tr.selfSeconds())
        std::printf("  %-28s %10.4f\n", name.c_str(), secs);

    std::vector<Metric> ms = {
        {"load.trace_gen_s", totals["load.trace_gen"], "s"},
        {"load.offered", offered, "count"},
        {"load.delivered", delivered, "count"},
        {"load.shed", offered - admitted_all, "count"},
        {"load.failed_frac",
         ratio(static_cast<double>(std::min<uint64_t>(chk.failed, p0.offered)),
               static_cast<double>(p0.offered)),
         "ratio"},
        {"load.admit_lag_ms", lag * 1e3, "ms"},
        {"fleet.build_s", totals["fleet.build"], "s"},
        {"fleet.admit_s", totals["fleet.admit"], "s"},
        {"fleet.pump_s", totals["fleet.pump"], "s"},
        {"fleet.mutate_s", totals["fleet.mutate"], "s"},
        {"fleet.kill_s", totals["fleet.kill"], "s"},
        {"fleet.drain_s", totals["fleet.drain"], "s"},
        {"fleet.pump_growth", pumpGrowth(m, tr), "ratio"},
        {"fleet.wait_ms_p50", dw.p50, "ms"},
        {"fleet.wait_ms_tail", dw.tail, "ms"},
        {"fleet.gather_ms_p50", dg.p50, "ms"},
        {"fleet.gather_ms_tail", dg.tail, "ms"},
        {"fleet.merge_ms_p50", dm.p50, "ms"},
        {"fleet.merge_ms_tail", dm.tail, "ms"},
        {"fleet.fabric_ms_p50", df.p50, "ms"},
        {"fleet.fabric_ms_tail", df.tail, "ms"},
        {"fleet.failovers", static_cast<double>(router.failovers()), "count"},
        {"fleet.evacuated", static_cast<double>(router.evacuatedQueries()),
         "count"},
        {"fleet.busy_imbalance", ratio(busy_max * router.devices(), busy_sum),
         "ratio"},
        {"kernels.batch_mean", ratio(admitted, batches), "count"},
    };
    for (const auto &[tag, p] : {std::pair{"b1", &b1}, std::pair{"b8", &b8}}) {
        std::string pre = std::string("kernels.stage.") + tag + ".";
        const kernels::RagStageLatency &s = p->stages;
        ms.push_back({pre + "load_embedding_ms", s.loadEmbedding * 1e3, "ms"});
        ms.push_back({pre + "load_query_ms", s.loadQuery * 1e3, "ms"});
        ms.push_back({pre + "calc_distance_ms", s.calcDistance * 1e3, "ms"});
        ms.push_back({pre + "topk_ms", s.topkAggregation * 1e3, "ms"});
        ms.push_back({pre + "return_ms", s.returnTopk * 1e3, "ms"});
        ms.push_back({pre + "overlap_hidden_ms", s.overlapHidden * 1e3, "ms"});
    }
    const AnswerStats &a = v.answers;
    std::vector<Metric> rest = {
        {"kernels.retrieve_host_ms.functional", f8.hostMsPerQuery, "ms"},
        {"kernels.retrieve_host_ms.timing", b8.hostMsPerQuery, "ms"},
        {"kernels.restage_mb", restage / 1e6, "MB"},
        {"gvml.lane_eval_s",
         p0.points[m.nominal].served.hostSeconds - v.replay.hostSeconds, "s"},
        {"gvml.plan_cache_hit_rate",
         ratio(static_cast<double>(pc.hits),
               static_cast<double>(pc.hits + pc.misses)),
         "ratio"},
        {"dramsim.hbm_mb_per_query",
         ratio(hbm_bytes / 1e6, static_cast<double>(gather.size())), "MB"},
        {"dramsim.row_hit_rate", ratio(row_hits, row_hits + row_miss), "ratio"},
        {"baseline.kmeans_s", kmeans_s, "s"},
        {"baseline.flat_build_s", totals["baseline.flat_build"], "s"},
        {"baseline.flat_search_ms",
         per_query_ms("baseline.flat_search", a.recallQueries), "ms"},
        {"baseline.ivf_search_ms",
         per_query_ms("baseline.ivf_search", a.goldenQueries), "ms"},
        {"baseline.epoch_flat_ms", a.epochFlatMs, "ms"},
        {"baseline.scan_fraction", a.scanFraction, "ratio"},
        {"baseline.recall_at_10", a.recall, "ratio"},
        {"recovery.resets", resets, "count"},
        {"recovery.replayed", replayed, "count"},
        {"recovery.breaker_trips", trips, "count"},
        {"host.peak_rss_mb", peakRssMb(), "MB"},
        {"trace.overhead_frac",
         ratio(m.traced.serveSeconds, p0.serveSeconds) - 1.0, "ratio"},
    };
    ms.insert(ms.end(), rest.begin(), rest.end());
    return ms;
}

} // namespace perfbench
