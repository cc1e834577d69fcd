/**
 * @file
 * Fleet-scale sharded serving: a router fronting N simulated APU
 * devices with replicated shards, scatter-gather top-k merge, and
 * failover that preserves exactly-once delivery.
 *
 * The paper characterizes one device; ROADMAP item 1 asks what the
 * serving story looks like when the corpus outgrows it. The answer
 * here:
 *
 *  - The corpus splits into S contiguous chunk-range shards
 *    (placement.hh), each staged on R devices chosen by consistent
 *    hashing. Shard geometry never depends on the device count, so
 *    results are comparable — bit-identical, in functional mode —
 *    across fleet sizes.
 *  - A query scatters to every shard's primary replica over the
 *    fabric (fabric.hh: per-link latency/bandwidth charged on the
 *    simulated clock, link_drop/link_corrupt injectable per
 *    device), is served by that device's DeviceServer (the full
 *    PR-5 recovery ladder: retry, breaker, CPU fallback,
 *    quarantine, reset + journal replay), and the per-shard top-ks
 *    merge on the router: shard-local hit ids are offset by the
 *    shard's firstChunk and re-ranked (score desc, id asc) — the
 *    same order the global index uses, so merged top-k == the
 *    unsharded answer exactly.
 *  - Failover: a device whose health ladder reaches
 *    Quarantined/Resetting — or that the bench kills outright — has
 *    its in-flight journaled queries *evacuated*: handed off in
 *    admission order and replayed on the next replica with their
 *    original admission timestamps. Journal ids are namespaced per
 *    device ((device+1) << 48 | (shard+1) << 32 | query), so the
 *    replica's journal admits the replay as a fresh id while the
 *    router's fleet-level ledger still completes the *query*
 *    exactly once. Zero drops: an admission only ever fails loudly
 *    (ResourceExhausted) when every replica refuses it.
 *
 * Latency accounting reuses the flight-recorder contract: for every
 * delivered query, (wait + shard_gather) + (failover + topk_merge)
 * re-adds bit-exactly to the reported fleet latency, where
 * shard_gather is the slowest shard's send + serve + return path.
 * QPS is queries / the busiest device's busy seconds — the same
 * makespan definition rag_service uses, one level up.
 */

#ifndef CISRAM_FLEET_FLEET_HH
#define CISRAM_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apusim/apu.hh"
#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "common/metrics.hh"
#include "common/status.hh"
#include "fault/fault.hh"
#include "fleet/fabric.hh"
#include "fleet/placement.hh"
#include "kernels/serving.hh"
#include "obs/flight.hh"

namespace cisram::fleet {

/** Fleet topology + per-shard serving configuration. */
struct FleetConfig
{
    unsigned devices = 4;

    /** Replication factor R: devices each shard is staged on. */
    unsigned replicas = 1;

    /** Corpus shards S (0 = two per device). */
    unsigned shards = 0;

    /**
     * Simulated cores per device the shard servers spread over
     * (round-robin). One core keeps per-device load a smooth
     * function of its shard count; the paper device has four.
     */
    unsigned coresPerDevice = 1;

    /** Build golden indexes + exact results (small corpora only). */
    bool functional = false;

    size_t topK = 5;

    /**
     * Base per-shard DeviceServer config. The router owns the
     * recovery ladder story, so health.enabled is forced on, and
     * topK / deviceIndex are overwritten per server.
     */
    kernels::ServerConfig server;

    FabricConfig fabric;
    PlacementConfig placement;

    /**
     * Router-side merge cost per candidate hit (S * topK candidates
     * per query): a handful of ns each for the heap insert on a
     * host core.
     */
    double mergeSecondsPerCandidate = 25e-9;

    /** Router flight-recorder enablement. */
    obs::FlightConfig flight;

    /**
     * Per-tenant in-flight admission quota at the router: a tenant
     * at its cap has further admissions shed loudly
     * (ResourceExhausted, reason="quota") *before* they are
     * journaled, so one tenant's burst cannot starve the fleet.
     * Tenants without an entry are unlimited.
     */
    struct TenantQuota
    {
        std::string tenant;
        uint64_t maxInFlight = 0;
    };
    std::vector<TenantQuota> quotas;
};

/**
 * Check every armed clause's `device=` scope against the actual
 * fleet size: a clause targeting a device that does not exist is an
 * InvalidArgument naming the token (a typo'd campaign must not
 * silently inject nothing). The parse-time bound (kMaxFaultDevices)
 * cannot catch this — only the router knows N.
 */
Status validateFaultPlanForFleet(const fault::FaultPlan &plan,
                                 unsigned devices);

/** One query's merged, fleet-level outcome. */
struct FleetOutcome
{
    uint64_t id = 0;
    bool ok = false;

    /** Global chunk ids of the merged top-k (functional mode). */
    std::vector<uint32_t> ids;

    /** Merged scored hits, global ids (functional mode). */
    std::vector<baseline::Hit> hits;

    double admitSeconds = 0;  ///< router arrival time
    double gatherSeconds = 0; ///< slowest shard send+serve+return
    double hostSeconds = 0;   ///< failover resends + top-k merge
    double fabricSeconds = 0; ///< total fabric charge, all shards

    /** End-to-end fleet latency: (wait + gather) + host. */
    double latencySeconds = 0;

    unsigned failovers = 0;    ///< shard re-routes this query took
    bool allFromDevice = true; ///< no shard needed the CPU fallback

    /** Tenant + SLO class the query admitted under. */
    kernels::AdmitClass cls;

    /**
     * Corpus epoch the query admitted under — the snapshot its
     * answer is consistent with, and the golden it bit-compares
     * against.
     */
    uint64_t epoch = 0;
};

/**
 * The fleet router. Single-threaded by design (determinism comes
 * from simulated clocks, like every serving layer below it); one
 * router owns its devices, servers, fabric, and ledger.
 *
 * Usage mirrors DeviceServer one level up:
 *   router.admit(id, query, arrival);
 *   for (auto &o : router.pump()) ...   // merged outcomes
 *   for (auto &o : router.drain()) ...  // flush + failover
 */
class Router
{
  public:
    Router(const baseline::RagCorpusSpec &corpus,
           uint64_t corpus_seed, FleetConfig cfg);

    /**
     * Admit one query at router-clock `arrival_seconds`: journal it
     * fleet-wide, then scatter a sub-query to every shard's first
     * healthy replica (router breaker + liveness gated, hedged to
     * the next replica on refusal). ResourceExhausted only when
     * every replica of some shard refuses — never a silent drop.
     * `search` rides with the query through every hop — scatter,
     * shard batching, failover replay — and each shard applies it
     * against its own per-shard clustering (nprobe > 0 needs
     * cfg.server.ivf.enabled).
     */
    Status admit(uint64_t id, std::vector<int16_t> query,
                 double arrival_seconds = 0.0,
                 kernels::RagSearchParams search = {},
                 kernels::AdmitClass cls = {});

    /** Serve ready batches fleet-wide; merged outcomes, id order. */
    std::vector<FleetOutcome> pump();

    /**
     * pump() for open-loop traffic: also closes out batches whose
     * oldest admission has aged past the servers'
     * BatchPolicy::maxLingerSeconds as of observed arrival clock
     * `now` (see DeviceServer::pumpUntil).
     */
    std::vector<FleetOutcome> pumpUntil(double now);

    /**
     * One shard's next corpus epoch, produced by the mutation plan
     * (load/mutation.hh): the shard's new overlay view (shared so
     * the router can keep it alive for its servers' lifetime), the
     * shard-local chunk count under that view, and the incremental
     * re-stage bytes each replica pays.
     */
    struct ShardEpochUpdate
    {
        unsigned shard = 0;
        std::shared_ptr<const baseline::CorpusEpochView> view;
        uint64_t numChunks = 0;
        uint64_t deltaBytes = 0;
    };

    /**
     * Advance the fleet to corpus epoch `new_epoch` (must be the
     * current epoch + 1). The epoch barrier is a fleet-wide drain()
     * — every query admitted under the old epoch merges against the
     * old snapshot first; those outcomes are returned. Then every
     * *live* replica of each updated shard applies its epoch-tagged
     * incremental re-stage (DeviceServer::applyMutation). A killed
     * device stays at its stale epoch forever: it can never serve
     * again (dispatch skips dead devices), so no query observes a
     * mixed snapshot. Queries admitted after this call are pinned
     * to `new_epoch`.
     */
    std::vector<FleetOutcome>
    applyMutation(uint64_t new_epoch,
                  const std::vector<ShardEpochUpdate> &updates);

    /** Corpus epoch new admissions are pinned to. */
    uint64_t corpusEpoch() const { return epoch_; }

    /** A tenant's queries currently in flight (quota accounting). */
    uint64_t tenantInFlight(const std::string &tenant) const;

    /**
     * Serve everything outstanding: drains every live device
     * (their own ladders may reset + replay internally), evacuates
     * and replays dead devices' in-flight queries on replicas, and
     * merges. On return the fleet ledger is empty — every admitted
     * query has exactly one merged outcome.
     */
    std::vector<FleetOutcome> drain();

    /**
     * Kill a device mid-stream (bench/chaos): sever its fabric
     * link, quarantine its shard servers, and evacuate + re-route
     * its in-flight journaled queries to replicas with their
     * original admission timestamps.
     */
    void killDevice(unsigned device);

    unsigned devices() const
    {
        return static_cast<unsigned>(fleet_.size());
    }
    unsigned shards() const { return shards_; }
    const std::vector<std::vector<unsigned>> &placement() const
    {
        return placement_;
    }

    /**
     * A device's busy clock: shard servers round-robined onto the
     * same core serialize (their busy clocks add); the device is as
     * busy as its busiest core.
     */
    double deviceBusySeconds(unsigned device) const;

    /** Fleet makespan: the busiest device (QPS denominator). */
    double makespanSeconds() const;

    /** Total simulated seconds charged on all fabric links. */
    double fabricBusySeconds() const;

    const Fabric &fabric() const { return fabric_; }
    const obs::FlightRecorder &flightRecorder() const
    {
        return flight_;
    }

    /** Fleet-ledger introspection (exactly-once verification). */
    size_t ledgerOutstanding() const
    {
        return ledger_.outstanding();
    }
    size_t ledgerAdmitted() const { return ledger_.admitted(); }

    /** Shard re-routes taken fleet-wide (admission + evacuation). */
    uint64_t failovers() const { return failovers_; }

    /** Queries evacuated off dead devices and replayed. */
    uint64_t evacuatedQueries() const { return evacuated_; }

    /**
     * The shard server hosting `shard` on `device`, or nullptr if
     * that replica does not live there (tests, introspection).
     */
    kernels::DeviceServer *server(unsigned device, unsigned shard);

    /**
     * Per-device served-latency histograms rolled up with
     * Histogram::merge — quantiles identical to observing the
     * pooled samples directly (pinned in test_obs).
     */
    metrics::Histogram mergedDeviceLatency() const;

    /**
     * Namespaced sub-query journal id: (device+1) << 48 |
     * (shard+1) << 32 | query. Distinct per (device, shard), so a
     * failover replay admits under a fresh id and exactly-once
     * holds per journal *and* fleet-wide.
     */
    static uint64_t subQueryId(unsigned device, unsigned shard,
                               uint64_t query_id);

  private:
    /** One shard replica resident on one device. */
    struct ShardServer
    {
        unsigned shard = 0;
        ShardRange range;
        baseline::RagCorpusSpec spec;
        std::unique_ptr<kernels::DeviceServer> server;

        /**
         * The epoch overlay this replica's spec points at. Shared
         * with the mutation plan; must outlive the server (the
         * retriever holds the spec by value, view by pointer).
         */
        std::shared_ptr<const baseline::CorpusEpochView> view;
    };

    /** One simulated device and the shard replicas it hosts. */
    struct FleetDevice
    {
        std::unique_ptr<apu::ApuDevice> dev;
        std::vector<ShardServer> servers;
        bool killed = false;
    };

    /** Per-(query, shard) scatter state. */
    struct SubState
    {
        unsigned device = 0;      ///< current assignee
        unsigned nextReplica = 0; ///< failover walk position
        double arrivalSeconds = 0;
        double sendSeconds = 0;      ///< successful-send charge
        double returnSeconds = 0;    ///< result-gather charge
        double extraHostSeconds = 0; ///< failover resend charges
        unsigned failovers = 0;
        unsigned attempts = 0;
        bool done = false;
        bool fromDevice = true;
        double pathSeconds = 0; ///< send + served + return
        std::vector<baseline::Hit> hits; ///< globalized ids
    };

    struct QueryState
    {
        uint64_t id = 0;
        std::vector<int16_t> query;
        kernels::RagSearchParams search;
        kernels::AdmitClass cls;
        uint64_t epoch = 0; ///< corpus epoch pinned at admission
        double admitSeconds = 0;
        std::vector<SubState> subs;
        size_t remaining = 0;
        bool finished = false;
        bool failed = false; ///< some shard exhausted every replica
    };

    bool deviceAlive(unsigned device) const;
    ShardServer *replicaOn(unsigned device, unsigned shard);

    /**
     * Route one sub-query to the first healthy replica of `shard`,
     * starting the walk after any device it already failed on.
     * Charges sends (successful one into sendSeconds, dead-end ones
     * into extraHostSeconds) and enqueues with `admit_seconds` —
     * the *original* admission time on a failover re-dispatch. The
     * sub-query cannot reach the replica before `not_before` (the
     * kill/evacuation time): arrival ratchets past it.
     */
    Status dispatchShard(QueryState &qs, unsigned shard,
                         double admit_seconds,
                         double not_before = 0);

    /** Fold one server's served outcomes into the scatter states. */
    void collect(unsigned device,
                 std::vector<kernels::ServeOutcome> outs);

    /** Merge a fully-gathered query; completes the ledger. */
    FleetOutcome finishQuery(QueryState &qs);

    /** Finished-and-unreported queries, in admission order. */
    std::vector<FleetOutcome> reapFinished();

    /** Evacuate + re-route a dead device's in-flight queries. */
    void evacuateDevice(unsigned device);

    baseline::RagCorpusSpec corpus_;
    uint64_t corpusSeed_;
    FleetConfig cfg_;
    unsigned shards_;
    std::vector<std::vector<unsigned>> placement_;
    Fabric fabric_;
    /**
     * One golden index per shard (functional mode), shared by the
     * shard's replicas. Declared before fleet_ so the servers that
     * point at them are destroyed first.
     */
    std::vector<std::unique_ptr<baseline::IndexFlatI16>> goldens_;
    std::vector<FleetDevice> fleet_;
    std::vector<kernels::CircuitBreaker> routerBreakers_;
    recovery::ReplayJournal<kernels::QueryPayload> ledger_;
    obs::FlightRecorder flight_;
    std::vector<QueryState> queries_; ///< admission order
    std::unordered_map<uint64_t, size_t> queryIndex_;
    uint64_t failovers_ = 0;
    uint64_t evacuated_ = 0;
    uint64_t epoch_ = 0; ///< epoch new admissions pin to
    std::unordered_map<std::string, uint64_t> tenantInFlight_;
};

} // namespace cisram::fleet

#endif // CISRAM_FLEET_FLEET_HH
