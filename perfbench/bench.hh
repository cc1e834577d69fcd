/**
 * @file
 * The measured phase, the correctness checks and the per-layer
 * figures of one benchmark run, shared by main.cc (orchestration and
 * end-to-end report), measure.cc and layers.cc.
 */
#ifndef CISRAM_PERFBENCH_BENCH_HH
#define CISRAM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/faisslite.hh"
#include "fleet/fleet.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double since(Clock::time_point t0);

double median(std::vector<double> v);

/** Peak resident memory of this process so far, MB. */
double peakRssMb();

/**
 * A latency sample summarized the way every timing is reported: the
 * median and the highest percentile with at least ten samples beyond
 * it, with the sample count.
 */
struct Dist
{
    size_t n = 0;
    double p50 = 0, tail = 0, tailQ = 0.5;

    size_t beyond() const;
    static Dist of(std::vector<double> v);
};

/** One trace of one rate point of a serving pass. */
struct Point
{
    Traffic traffic;
    std::unique_ptr<cisram::fleet::Router> router;
    Served served;
    double setupSeconds = 0; ///< trace generation + Router build
    uint64_t outstanding = 0; ///< router ledger entries left after serving
};

struct Pass
{
    /** Rate-major: the tracesPerRate traces of rate 0, then rate 1... */
    std::vector<Point> points;
    double setupSeconds = 0;
    double serveSeconds = 0;
    uint64_t offered = 0;
};

/** Everything the measured phase produced. */
struct Measured
{
    /** passes[0] keeps its nominal point's Router for verification. */
    std::vector<Pass> passes;
    /** The traced re-run (--trace 1 only), nominal Router kept. */
    Pass traced;
    /** Set-up seconds, one sample per set-up. */
    std::vector<double> setups;
    size_t nominal = 0; ///< point index of the nominal rate's first trace
};

/**
 * Serve every rate point once on fresh routers, and again while
 * `seconds` last (up to the workload's maxPasses); then repeat set-up
 * alone until the workload's set-up sample count. With a tracer, pass
 * 0 is followed by one traced pass and nothing else.
 */
Measured measure(const Workload &w, double seconds, Tracer *tr);

/** Failure ledger: every violation counts against `failed`. */
struct Checks
{
    uint64_t failed = 0;
    /** Each check made, in order, and whether it held. */
    std::vector<std::pair<std::string, bool>> made;

    void expect(bool ok, const std::string &what, uint64_t queries = 1);
};

struct AnswerStats
{
    double recall = 0;       ///< mean recall@k vs exhaustive truth
    uint64_t recallQueries = 0;
    double scanFraction = 0; ///< mean share of chunks probed
    uint64_t goldenQueries = 0;
    double epochFlatMs = 0;  ///< per-query epoch golden, host ms
};

struct Verified
{
    AnswerStats answers;
    Served replay;      ///< TimingOnly replay of the nominal trace
    double seconds = 0; ///< host wall time of all checks
};

/**
 * Every correctness check: simulated results identical across
 * passes, exactly-once delivery, admission at the due time, one shard
 * server per core, answers against the workload's golden, and the
 * TimingOnly replay's latency identity. The checks run the
 * workload's verifyReps times; `seconds` is the median and every
 * repetition must reach the same verdicts.
 */
Verified verify(const Workload &w, const Measured &m, Checks &chk,
                Tracer *tr);

/** Latency from the trace due time to the merged answer, ms. */
Dist latencyDist(const std::vector<const Point *> &pts);

/** Per-shard flat CPU indexes over the router's shard geometry. */
struct ShardFlats
{
    std::vector<cisram::baseline::RagCorpusSpec> specs;
    std::vector<std::unique_ptr<cisram::baseline::IndexFlatI16>> flats;

    explicit ShardFlats(const Workload &w);
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The per-layer figures of a traced run (see BENCHMARK.json). */
std::vector<Metric> layerMetrics(const Workload &w, const Measured &m,
                                 const Verified &v, const Checks &chk,
                                 Tracer &tr);

} // namespace perfbench

#endif // CISRAM_PERFBENCH_BENCH_HH
