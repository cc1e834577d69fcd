/**
 * @file
 * One benchmark workload: its configuration (read from
 * workloads.json), its seeded inputs, and the open-loop serving loop
 * that drives a fleet::Router with them.
 *
 * The serving loop is the same event merge load::runOpenLoop
 * performs (arrivals, mutation epochs, one device kill, in time
 * order), written out here so each call into the fleet layer can be
 * wrapped in a span and so queries can carry per-arrival search
 * parameters.
 */
#ifndef CISRAM_PERFBENCH_WORKLOAD_HH
#define CISRAM_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/workloads.hh"
#include "common/json.hh"
#include "fleet/fleet.hh"
#include "kernels/rag.hh"
#include "load/arrivals.hh"
#include "load/mutation.hh"
#include "spans.hh"

namespace perfbench {

struct WorkloadConfig
{
    std::string name;
    cisram::baseline::RagCorpusSpec corpus{"synthetic", 0, 0, 368};
    cisram::fleet::FleetConfig fleet;

    /** Fixed offered rates (QPS); one Router per rate. */
    std::vector<double> ratesQps;
    /** The rate whose latency is the headline (one of ratesQps). */
    double nominalQps = 0;
    /** Arrivals per trace (the first n of a Poisson process). */
    size_t arrivalsPerTrace = 0;
    /**
     * Independent traces per rate, each on its own Router; a rate's
     * latencies are pooled over them, which steadies its tail near
     * capacity.
     */
    unsigned tracesPerRate = 1;
    /** Latency limit on the tail percentile, milliseconds. */
    double tailLimitMs = 0;

    /** Mutation epochs spread evenly over the trace (0 = static). */
    unsigned mutationBatches = 0;
    uint64_t insertsPerBatch = 0;
    uint64_t deletesPerBatch = 0;
    /** Kill a device at this fraction of the trace (< 0 = never). */
    double killAtFraction = -1;

    /** IVF queries: drawn near a topic, probing `nprobe` lists. */
    size_t nprobe = 0;
    uint16_t filterMask = cisram::baseline::kFilterAll;
    /** Share of arrivals that carry `filterMask`. */
    double filteredShare = 0;
    /** Exhaustive ground truth for every k-th delivered query. */
    uint64_t recallStride = 1;

    /**
     * Serving passes (fresh set-up + serve): one, then more while the
     * run's --seconds last, at most maxPasses. Set-up alone is
     * repeated until `setups` samples exist.
     */
    unsigned maxPasses = 1;
    unsigned setups = 1;
    /** Repetitions of the correctness checks (verify_s: median). */
    unsigned verifyReps = 1;
};

/** Parse workload `name` out of the workloads.json document. */
WorkloadConfig parseWorkload(const cisram::json::Value &doc,
                             const std::string &name);

/** One query as the router receives it. */
struct Query
{
    std::vector<int16_t> vec;
    cisram::kernels::RagSearchParams search;
};

/** The seeded inputs of one rate point. */
struct Traffic
{
    double rateQps = 0;
    cisram::load::ArrivalTrace trace;
    std::unique_ptr<cisram::load::MutationPlan> plan;
    double killAtSeconds = -1;
};

/** What one serving pass over a trace produced. */
struct Served
{
    /** Merged outcomes, in completion order. */
    std::vector<cisram::fleet::FleetOutcome> outcomes;
    uint64_t offered = 0;
    uint64_t admitted = 0;
    double hostSeconds = 0; ///< wall time of the whole loop
};

class Workload
{
  public:
    Workload(WorkloadConfig cfg, uint64_t seed);

    const WorkloadConfig &config() const { return cfg_; }
    /**
     * The corpus is the workload's fixed data set; --seed varies the
     * traffic (arrival times, queries, mutations) served against it.
     */
    uint64_t corpusSeed() const;

    /** Arrival trace `k` (+ mutation plan) of rate index `i`. */
    Traffic traffic(size_t i, unsigned k) const;

    /**
     * The Router for this workload, functional or TimingOnly;
     * `flight_on` forces the shard servers' flight recorders on.
     */
    std::unique_ptr<cisram::fleet::Router>
    buildRouter(bool functional, bool flight_on = false) const;

    /** The query an arrival carries (pure in the arrival). */
    Query query(const cisram::load::Arrival &a) const;

    /** The shard-local corpus spec of `shard` (router geometry). */
    cisram::baseline::RagCorpusSpec shardSpec(unsigned shard) const;

    /** Drive `router` through `t` open loop; spans go to `tr`. */
    Served serve(cisram::fleet::Router &router, const Traffic &t,
                 Tracer *tr) const;

  private:
    WorkloadConfig cfg_;
    uint64_t seed_;
};

/** SplitMix64 of (seed, stream): independent per-purpose seeds. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // CISRAM_PERFBENCH_WORKLOAD_HH
