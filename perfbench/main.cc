/**
 * @file
 * End-to-end benchmark harness for the simulated compute-in-SRAM
 * retrieval fleet. One process runs one workload of workloads.json
 * and prints, as its last stdout line, one JSON object with the keys
 * correct, attempted, failed and metrics:
 *
 *   perfbench --config workloads.json --workload rag_churn
 *             --seed 1 --seconds 10 --trace 0 [--out-dir DIR]
 *
 * Two clocks are reported. Simulated time is what the modelled
 * device fleet takes: latency from each query's trace due time to its
 * merged top-k. Host time is what the simulator and the CPU goldens
 * take to produce it.
 *
 * --trace 0 times the workload with tracing and metrics collection
 * off and reports the end-to-end metrics. --trace 1 runs it once
 * untraced and once with a span around every call into a layer,
 * reports the per-layer metrics and the tracing overhead, and writes
 * the spans as Chrome trace JSON into --out-dir.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/json.hh"
#include "common/metrics.hh"

using namespace cisram;
using namespace perfbench;

namespace {

struct Args
{
    std::string config = "workloads.json";
    std::string workload;
    std::string outDir = ".";
    uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc % 2 == 0)
        return false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            std::string k = argv[i], v = argv[i + 1];
            if (k == "--config")
                a.config = v;
            else if (k == "--workload")
                a.workload = v;
            else if (k == "--out-dir")
                a.outDir = v;
            else if (k == "--seed") {
                a.seed = std::stoull(v);
                a.seedGiven = true;
            } else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace" && (v == "0" || v == "1"))
                a.trace = v == "1";
            else
                return false;
        }
    } catch (const std::exception &) {
        return false;
    }
    return !a.workload.empty();
}

bool
loadConfig(const std::string &path, json::Value &doc)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    if (in && json::parse(text.str(), doc, &err) && doc.isObject())
        return true;
    std::fprintf(stderr, "perfbench: cannot read %s %s\n", path.c_str(),
                 err.c_str());
    return false;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &ms)
{
    json::Value doc;
    doc["correct"] = correct;
    doc["attempted"] = attempted;
    doc["failed"] = failed;
    json::Value &metrics = doc["metrics"];
    metrics.makeObject();
    for (const Metric &m : ms) {
        json::Value &v = metrics[m.name];
        v["value"] = m.value;
        v["unit"] = m.unit;
    }
    std::printf("%s\n", doc.dump().c_str());
}

struct RatePoint
{
    uint64_t offered = 0, delivered = 0;
    double achievedQps = 0;
    Dist lat;
    bool meetsSlo = false;
};

/** The traces of rate index `i` in pass `p`. */
std::vector<const Point *>
tracesOf(const Pass &p, size_t i, unsigned traces)
{
    std::vector<const Point *> pts;
    for (unsigned k = 0; k < traces; ++k)
        pts.push_back(&p.points[i * traces + k]);
    return pts;
}

/**
 * One rate point against the latency limit, its traces pooled: the
 * tail under the limit, at most 1% failed, and delivered throughput
 * at least 95% of offered (no backlog growing over the traces).
 */
RatePoint
ratePoint(const std::vector<const Point *> &pts, double tail_limit_ms)
{
    RatePoint r;
    double span = 0, busy = 0;
    for (const Point *pt : pts) {
        r.offered += pt->served.offered;
        double end = pt->traffic.trace.cfg.durationSeconds;
        span += end;
        for (const fleet::FleetOutcome &o : pt->served.outcomes)
            if (o.ok) {
                ++r.delivered;
                end = std::max(end, o.admitSeconds + o.latencySeconds);
            }
        busy += end;
    }
    r.achievedQps = static_cast<double>(r.delivered) / busy;
    r.lat = latencyDist(pts);
    double offered_qps = static_cast<double>(r.offered) / span;
    r.meetsSlo = r.lat.tail < tail_limit_ms &&
        r.delivered >= 0.99 * static_cast<double>(r.offered) &&
        r.achievedQps >= 0.95 * offered_qps;
    return r;
}

/** The end-to-end figures, printed for people and as the result. */
std::vector<Metric>
endToEnd(const Workload &w, const Measured &m, const Verified &v,
         uint64_t failed)
{
    const WorkloadConfig &c = w.config();
    const Pass &p0 = m.passes[0];
    double max_qps = 0;
    std::printf("\n%10s %8s %9s %12s %9s %11s %7s %s\n", "rate_qps",
                "offered", "delivered", "achieved_qps", "p50_ms", "tail_ms",
                "tail_q", "slo");
    for (size_t i = 0; i < c.ratesQps.size(); ++i) {
        RatePoint r =
            ratePoint(tracesOf(p0, i, c.tracesPerRate), c.tailLimitMs);
        if (r.meetsSlo)
            max_qps = std::max(max_qps, c.ratesQps[i]);
        std::printf("%10.1f %8llu %9llu %12.2f %9.3f %11.3f %7.3f %s\n",
                    c.ratesQps[i],
                    static_cast<unsigned long long>(r.offered),
                    static_cast<unsigned long long>(r.delivered),
                    r.achievedQps, r.lat.p50, r.lat.tail, r.lat.tailQ,
                    r.meetsSlo ? "met" : "missed");
    }

    Dist lat = latencyDist(
        tracesOf(p0, m.nominal / c.tracesPerRate, c.tracesPerRate));
    std::vector<double> host_ms;
    for (const Pass &p : m.passes)
        host_ms.push_back(p.serveSeconds * 1e3 /
                          static_cast<double>(p.offered));
    double failed_frac =
        static_cast<double>(failed) / static_cast<double>(p0.offered);

    std::printf("\nsim_p50_ms          %.4f ms (n=%zu, at %.1f QPS)\n",
                lat.p50, lat.n, c.nominalQps);
    std::printf("sim_tail_ms         %.4f ms (p%.1f, n=%zu, %zu beyond)\n",
                lat.tail, lat.tailQ * 100, lat.n, lat.beyond());
    std::printf("sim_max_qps_at_slo  %.1f QPS (tail < %.1f ms; %zu rate(s) "
                "x %u trace(s))\n",
                max_qps, c.tailLimitMs, c.ratesQps.size(), c.tracesPerRate);
    std::printf("failed_frac         %.6f (%llu of %llu)\n", failed_frac,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(p0.offered));
    if (v.answers.recallQueries)
        std::printf("recall_at_%zu        %.4f (n=%llu queries)\n",
                    c.fleet.topK, v.answers.recall,
                    static_cast<unsigned long long>(v.answers.recallQueries));
    std::printf("setup_s             %.4f s (median of %zu)\n",
                median(m.setups), m.setups.size());
    std::printf("host_ms_per_query   %.4f ms (median of %zu pass(es), "
                "%llu queries each)\n",
                median(host_ms), host_ms.size(),
                static_cast<unsigned long long>(p0.offered));
    std::printf("verify_s            %.4f s\n", v.seconds);
    std::printf("peak_rss_mb         %.1f MB\n\n", peakRssMb());

    return {{"sim_p50_ms", lat.p50, "ms"},
            {"sim_tail_ms", lat.tail, "ms"},
            {"sim_max_qps_at_slo", max_qps, "1/s"},
            {"delivered_frac", 1.0 - failed_frac, "ratio"},
            {"setup_s", median(m.setups), "s"},
            {"host_ms_per_query", median(host_ms), "ms"},
            {"verify_s", v.seconds, "s"}};
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME [--config FILE] "
                     "[--seed N] [--seconds S] [--trace 0|1] "
                     "[--out-dir DIR]\n");
        return 2;
    }
    // The timed runs must see none of the simulator's observability
    // or fault-injection switches.
    for (const char *var :
         {"CISRAM_TRACE", "CISRAM_METRICS", "CISRAM_FAULT_SPEC"})
        if (std::getenv(var)) {
            std::fprintf(stderr, "perfbench: %s must be unset\n", var);
            return 2;
        }
    json::Value doc;
    if (!loadConfig(args.config, doc))
        return 2;
    const json::Value *workloads = doc.asObject().find("workloads");
    if (!workloads || !workloads->asObject().contains(args.workload)) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
    if (!args.seedGiven)
        args.seed = static_cast<uint64_t>(doc["default_seed"].asNumber());
    metrics::setEnabled(false);

    Workload w(parseWorkload(doc, args.workload), args.seed);
    const char *threads = std::getenv("CISRAM_SIM_THREADS");
    std::printf("workload %s  seed %llu  CISRAM_SIM_THREADS=%s  trace %d\n",
                w.config().name.c_str(),
                static_cast<unsigned long long>(args.seed),
                threads ? threads : "(unset)", args.trace ? 1 : 0);

    std::unique_ptr<Tracer> tracer;
    if (args.trace)
        tracer = std::make_unique<Tracer>();
    Measured m = measure(w, args.seconds, tracer.get());
    Checks chk;
    Verified v = verify(w, m, chk, tracer.get());

    uint64_t attempted = m.passes[0].offered;
    std::vector<Metric> figures =
        endToEnd(w, m, v, std::min(attempted, chk.failed));
    if (args.trace) {
        figures = layerMetrics(w, m, v, chk, *tracer);
        std::string path = args.outDir + "/perfbench-" + w.config().name +
            "-seed" + std::to_string(args.seed) + ".trace.json";
        chk.expect(tracer->writeChrome(path), "spans written to " + path);
    }
    for (const auto &[what, ok] : chk.made)
        std::printf("check %-50s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    printResult(chk.failed == 0, attempted,
                std::min(attempted, chk.failed), figures);
    return 0;
}
