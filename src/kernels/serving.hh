/**
 * @file
 * Serving primitives for the RAG loop: fault tolerance plus the
 * asynchronous batched pipeline.
 *
 * A production serving loop in front of the accelerator cannot treat
 * a device fault as fatal: a hung task, a corrupted PCIe transfer, or
 * an uncorrectable ECC error on one core must degrade that query, not
 * the service. And it cannot afford to run one query per corpus pass:
 * `RagRetriever::retrieveBatch` amortizes the dominant embedding
 * stream over up to eight queries, so the serving loop's job is to
 * *form* those batches from an admission queue. The pieces here
 * encode both patterns:
 *
 *  - RetryPolicy: how many times to re-issue a failed device attempt
 *    before giving up on the device for this query/batch.
 *  - CircuitBreaker (one per device core): after `failureThreshold`
 *    consecutive query failures the breaker trips Open and queries
 *    route straight to the CPU fallback without touching the device;
 *    after `cooldownQueries` fallback queries it goes HalfOpen and
 *    the next query probes the device once — success re-closes the
 *    breaker, failure re-opens it and the cooldown restarts.
 *  - BatchFormer: a FIFO admission queue plus a deterministic batch
 *    former. A batch ships when `maxBatch` queries are pending, or
 *    when the oldest pending query has seen `maxLingerAdmissions`
 *    later admissions (the linger bound is counted in admissions,
 *    like the breaker's cooldown is counted in queries — no wall
 *    clock anywhere).
 *  - DeviceServer (one per device core): the full serving shard.
 *    Owns the core's retriever, HBM model, GDL session, breaker, and
 *    batch former; serves formed batches through one `retrieveBatch`
 *    call under the retry/breaker/fallback policy, with queue wait
 *    counted into each query's served latency. With a
 *    recovery::HealthPolicy enabled it also owns the escalation
 *    ladder above retry: a recovery::HealthMonitor quarantines a
 *    persistently faulting core, admissions are shed
 *    (ResourceExhausted) while quarantined, and drain() escalates to
 *    a gdl core reset — re-allocate, re-stage the shard, replay the
 *    admission journal with exactly-once outcomes (DESIGN.md
 *    "Escalation ladder").
 *
 * Everything is deterministic (no wall clock: cooldowns and linger
 * are counted in queries, waits in simulated seconds), so a serving
 * run — even under an armed fault plan, even threaded — is
 * reproducible bit-for-bit.
 */

#ifndef CISRAM_KERNELS_SERVING_HH
#define CISRAM_KERNELS_SERVING_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apusim/apu.hh"
#include "baseline/faisslite.hh"
#include "baseline/timing_models.hh"
#include "baseline/workloads.hh"
#include "dramsim/dram_sim.hh"
#include "gdl/gdl.hh"
#include "kernels/rag.hh"
#include "obs/flight.hh"
#include "recovery/health.hh"
#include "recovery/journal.hh"

namespace cisram::kernels {

/** Circuit-breaker state (DESIGN.md "Fault model"). */
enum class BreakerState { Closed, Open, HalfOpen };

const char *breakerStateName(BreakerState s);

/** Per-query device retry budget. */
struct RetryPolicy
{
    /** Device attempts per query before falling back to CPU. */
    unsigned maxAttempts = 3;

    /**
     * Per-attempt device deadline, simulated seconds. For batched
     * serving this bounds one whole-batch attempt, so size it for a
     * full corpus pass at the configured batch size.
     */
    double deadlineSeconds = 0.1;
};

/**
 * One core's breaker. Not thread-safe: each serving shard owns the
 * breaker of the core it drives, matching the one-session-per-core
 * structure of the serving loop.
 */
class CircuitBreaker
{
  public:
    explicit CircuitBreaker(unsigned failure_threshold = 3,
                            unsigned cooldown_queries = 4)
        : threshold_(failure_threshold), cooldown_(cooldown_queries)
    {}

    /**
     * Gate one query: true to try the device (Closed, or the single
     * HalfOpen probe), false to go straight to the CPU fallback.
     * While Open, exactly `cooldownQueries` calls fall back (each
     * counting down the cooldown); the following call transitions to
     * HalfOpen and admits the probe.
     */
    bool allowRequest();

    /** The admitted device query succeeded: close the breaker. */
    void recordSuccess();

    /**
     * The admitted device query failed (after its retry budget).
     * Closed: counts toward the trip threshold. HalfOpen: the probe
     * failed, re-open and restart the cooldown.
     */
    void recordFailure();

    BreakerState state() const { return state_; }
    unsigned consecutiveFailures() const { return consecutive_; }

    /** Times the breaker tripped Closed/HalfOpen -> Open. */
    unsigned trips() const { return trips_; }

  private:
    void trip();

    unsigned threshold_;
    unsigned cooldown_;
    BreakerState state_ = BreakerState::Closed;
    unsigned consecutive_ = 0;
    unsigned remainingCooldown_ = 0;
    unsigned trips_ = 0;
};

// ---------------------------------------------------------------------
// Batched serving pipeline.

/**
 * Admission identity of a query: which tenant sent it and which SLO
 * class it bought. Carried from admission through the journal to the
 * outcome so shedding, failover replay, and per-class SLO windows all
 * see the same identity. Class numbering: 0 is the *highest* class;
 * larger numbers shed first under overload. The defaults ("-", 0)
 * keep single-tenant callers label-stable.
 */
struct AdmitClass
{
    std::string tenant = "-";
    unsigned sloClass = 0;

    bool
    operator==(const AdmitClass &o) const
    {
        return tenant == o.tenant && sloClass == o.sloClass;
    }
};

/** One admitted query awaiting batch formation. */
struct PendingQuery
{
    /** Caller-assigned id, carried through to the outcome. */
    uint64_t id = 0;

    std::vector<int16_t> embedding;

    /**
     * Core-local simulated time at admission (set by
     * DeviceServer::enqueue); the batch former itself never reads
     * it. Queue wait = service start time - this.
     */
    double admitSeconds = 0;

    /**
     * Per-query index parameters (nprobe, metadata filter). One
     * retrieveBatch call shares a single RagSearchParams, so the
     * batch former only coalesces queries whose params are equal.
     */
    RagSearchParams search;

    /** Tenant + SLO class this query admitted under. */
    AdmitClass cls;
};

/**
 * Journal payload for one admitted query: everything a replay (core
 * reset) or a failover hand-off needs to re-serve it identically —
 * the embedding *and* its index params. A replayed filtered IVF
 * query must probe the same lists under the same predicate, or the
 * replay is not bit-identical to the un-faulted run.
 */
struct QueryPayload
{
    std::vector<int16_t> embedding;
    RagSearchParams search;

    /**
     * Admission identity, preserved across replay/failover so a
     * replayed query sheds, labels, and windows exactly like the
     * original admission would have.
     */
    AdmitClass cls;
};

/** Deterministic batch-formation policy (no wall clock). */
struct BatchPolicy
{
    /** Queries coalesced into one retrieveBatch call (1..8). */
    size_t maxBatch = 8;

    /**
     * A pending query ships after at most this many *later*
     * admissions, even if the batch is not full — the query-counted
     * analogue of a batching timeout. 0 means every admission ships
     * immediately (sequential serving).
     */
    size_t maxLingerAdmissions = 8;

    /**
     * Close-out bound for open-loop traffic, simulated seconds
     * (0 = disabled). Admission-count linger alone is unbounded
     * under a sparse arrival trace: the tail query of a burst waits
     * forever for batch-mates that never arrive. With this set, a
     * pending batch also ships once the *observed arrival clock*
     * (DeviceServer::pumpUntil's `now`) reaches the oldest pending
     * admission plus this bound. Still deterministic: the clock is
     * simulated, derived from the arrival trace, never wall time.
     */
    double maxLingerSeconds = 0;
};

/**
 * Admission queue + batch former. FIFO, deterministic: batch
 * boundaries depend only on the admission sequence, never on time or
 * thread interleaving.
 */
class BatchFormer
{
  public:
    explicit BatchFormer(BatchPolicy policy = {});

    void admit(PendingQuery q);

    /**
     * True when a batch should ship now: `maxBatch` queries are
     * pending, or the oldest pending query has lingered through
     * `maxLingerAdmissions` later admissions.
     */
    bool batchReady() const;

    /**
     * batchReady() plus the time-based close-out: also true when
     * `maxLingerSeconds` is set and the oldest pending query has
     * been waiting since before `now - maxLingerSeconds`. `now` is
     * the caller's observed simulated clock (the latest arrival the
     * open-loop driver has revealed), not this core's busy clock.
     */
    bool batchReadyAt(double now) const;

    /** Admission timestamp of the oldest pending query. */
    double frontAdmitSeconds() const;

    /**
     * Pop the next batch: the maximal FIFO prefix (up to `maxBatch`
     * queries) whose search params all equal the front query's — a
     * device batch runs one coarse pass and one filter plane, so
     * mixed-params queries cannot share it. FIFO order is never
     * reordered around a param boundary (no starvation, no
     * priority inversion); a mixed queue just ships more, smaller
     * batches. Also used to flush the tail: callable regardless of
     * batchReady(); returns an empty vector when nothing is pending.
     */
    std::vector<PendingQuery> takeBatch();

    size_t depth() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }
    const BatchPolicy &policy() const { return policy_; }

    uint64_t admitted() const { return admissions_; }
    uint64_t batchesFormed() const { return batches_; }

  private:
    struct Entry
    {
        PendingQuery query;
        uint64_t serial; ///< admission count when enqueued
    };

    BatchPolicy policy_;
    std::deque<Entry> queue_;
    uint64_t admissions_ = 0;
    uint64_t batches_ = 0;
};

/** How one query was answered. */
struct ServeOutcome
{
    uint64_t id = 0;           ///< PendingQuery id (0 for serve())
    bool ok = false;
    bool fromDevice = false;
    unsigned attempts = 0;     ///< device attempts made (per batch)
    size_t batchSize = 1;      ///< queries in the batch it shipped in
    std::vector<uint32_t> ids; ///< host-visible top-k ids

    /**
     * Device result. In functional mode `run.hits` carries the exact
     * scored top-k from *either* path (the device pass fills it; the
     * CPU fallback copies the golden index's hits into it) so a
     * scatter-gather merge can re-rank shard results by score
     * without caring how the shard was answered.
     */
    RagRunResult run;

    double queueWaitSeconds = 0; ///< simulated admission-queue wait
    double retrievalSeconds = 0; ///< device or CPU retrieval (whole
                                 ///< batch: the query waits for it)
    double hostSeconds = 0;      ///< PCIe staging + failed attempts
    std::string lastError;       ///< last device failure, if any

    /** Tenant + SLO class the query admitted under. */
    AdmitClass cls;

    /** End-to-end served latency of this query, simulated seconds. */
    double
    servedSeconds() const
    {
        return queueWaitSeconds + retrievalSeconds + hostSeconds;
    }
};

/**
 * Bounded-admission policy: overload is shed at the door with
 * ResourceExhausted — never a silent drop — so a quarantined core's
 * redirected load cannot collapse its siblings. Both bounds default
 * to 0 (disabled): a server without an explicit policy admits
 * everything, exactly as before this subsystem existed.
 */
struct AdmissionPolicy
{
    /** Pending queries the queue will hold (0 = unbounded). */
    size_t maxQueueDepth = 0;

    /**
     * Shed an admission whose predicted queue delay (pending batches
     * ahead x the EWMA batch service time, simulated seconds)
     * exceeds this (0 = disabled). Deterministic: the estimate is a
     * pure function of the admission sequence and served batches.
     */
    double maxQueueDelaySeconds = 0;

    /**
     * SLO classes sharing this server (0 or 1 = classless, the caps
     * above apply uniformly). With C > 1 classes, class c (clamped
     * to C-1) sees the caps scaled by (C-c)/C: class 0 keeps the
     * full budget, the lowest class gets 1/C of it — so under
     * overload the lowest class deterministically sheds first and
     * the highest sheds last, with no reordering and no preemption.
     */
    unsigned sloClasses = 0;
};

/** Per-core serving configuration. */
struct ServerConfig
{
    size_t topK = 5;

    /**
     * Fleet device this shard belongs to, carried on every recovery
     * metric series (shed/parked/replayed/transitions) and into the
     * GDL session + HBM model for `device=N` fault clause scoping.
     * 0 for standalone single-device serving.
     */
    unsigned deviceIndex = 0;
    RetryPolicy retry{3, 0.5};
    unsigned breakerThreshold = 2;
    unsigned breakerCooldown = 2;
    BatchPolicy batch;

    /** Double-buffer the HBM embedding stream behind compute. */
    bool overlapStream = true;

    /** Escalation-ladder policy (disabled by default). */
    recovery::HealthPolicy health;

    /** Admission bounds (disabled by default). */
    AdmissionPolicy admission;

    /** Patrol-scrub cadence for this core's HBM (off by default). */
    dram::ScrubConfig scrub;

    /**
     * Flight-recorder enablement (obs/flight.hh). Auto (default)
     * records only when CISRAM_TRACE armed tracing before the server
     * was built; On forces the attribution ledger even without a
     * trace sink (tests, attribution studies). Recording never
     * charges simulated time.
     */
    obs::FlightConfig flight;

    /**
     * Core resets drain() may perform before it stops escalating and
     * forces the remaining parked queries through the CPU fallback.
     */
    unsigned maxResets = 2;

    /**
     * IVF-lite serving (DESIGN.md section 11). When enabled the
     * server trains a coarse quantizer over its corpus shard at
     * construction (host-side, from the golden's rows when it has
     * one; it survives core resets — the clustering is host state,
     * only the device-side list and centroid staging is re-paid)
     * and honours per-query `nprobe`/`filterMask` params.
     * Disabled (default): params with nprobe > 0 are a
     * configuration error.
     */
    struct IvfServingConfig
    {
        bool enabled = false;
        baseline::IvfBuildConfig build;
    } ivf;
};

/**
 * Config-time check that a coarse quantizer of `ivf_lists` inverted
 * lists (0 = no IVF) fits the device's coarse pass, which scores the
 * whole centroid table as one VR: InvalidArgument when ivf_lists
 * exceeds vrLength. DeviceServer applies it in every execution mode.
 */
Status validateIvfLists(const apu::ApuSpec &spec, size_t ivf_lists);

/**
 * Config-time check that `shard` can be served functionally on one
 * core of a device built from `spec`, with `ivf_lists` inverted lists
 * (0 = no IVF): validateIvfLists, then InvalidArgument when the shard
 * holds more than the 2^21-chunk functional corpus limit, or when the
 * planes a functional retriever keeps resident in L4 for its lifetime
 * exceed the core's share of L4 (l4Bytes / numCores). Those are the
 * exhaustive scan's supertiles x dim vectors and, with IVF, the
 * inverted lists' ragged supertiles (at most ceil(chunks / l) +
 * ivf_lists of them) x dim vectors plus the centroid table's dim + 1.
 * DeviceServer applies it to every functional shard it builds, so
 * fleet and server construction refuse such a shard.
 */
Status validateFunctionalShard(const apu::ApuSpec &spec,
                               const baseline::RagCorpusSpec &shard,
                               size_t ivf_lists = 0);

/**
 * One core's serving shard: admission queue, batch former, retriever,
 * and the retry/breaker/fallback machinery, all core-private (the
 * HBM model is stateful and a GDL session is single-threaded, so
 * each core owns one of each). Driven by exactly one shard thread.
 *
 * Pipeline usage:
 *   server.enqueue(id, embedding);     // admit
 *   for (auto &o : server.pump()) ...  // serve ready batches
 *   for (auto &o : server.drain()) ... // flush the tail
 *
 * serve() is the synchronous single-query path (no queue), used by
 * probes and tests.
 */
class DeviceServer
{
  public:
    /**
     * @param golden Exact CPU index for fallback answers; may be
     *        null (timing-only serving), in which case fallbacks
     *        return no ids but still charge CPU latency.
     */
    DeviceServer(apu::ApuDevice &dev, baseline::RagCorpusSpec spec,
                 unsigned core, const baseline::IndexFlatI16 *golden,
                 uint64_t corpus_seed, ServerConfig cfg = {});

    /**
     * Admit one query into this core's queue. OK on admission;
     * ResourceExhausted when the admission policy sheds it (queue
     * full, predicted delay over budget) or the core is Quarantined
     * — the caller re-routes or reports, but the query is never
     * silently dropped. With the default (disabled) health and
     * admission policies every call returns OK. `search` carries the
     * query's index params (nprobe > 0 requires cfg.ivf.enabled).
     * `cls` is the tenant + SLO class the query admits under; with
     * AdmissionPolicy::sloClasses set, lower classes see tighter
     * caps and shed first.
     */
    Status enqueue(uint64_t id, std::vector<int16_t> embedding,
                   RagSearchParams search = {}, AdmitClass cls = {});

    /**
     * Admit with an explicit admission timestamp instead of this
     * core's current busy clock — the failover path replays
     * journaled queries on a replica with their *original* admit
     * times, so queue-wait math (and therefore served latency) is
     * identical to the run that never lost the device. Callers must
     * advanceClock() past `admit_seconds` first if the replica's
     * clock is behind the originating device's.
     */
    Status enqueueAt(uint64_t id, std::vector<int16_t> embedding,
                     double admit_seconds,
                     RagSearchParams search = {},
                     AdmitClass cls = {});

    /**
     * Ratchet this core's busy clock forward to `t` (no-op if it is
     * already past). The fleet router uses this to model the arrival
     * of work dispatched at fabric time `t`: a replica that was idle
     * until a failover cannot start serving before the hand-off
     * reaches it.
     */
    void advanceClock(double t);

    /**
     * Evacuate every admitted-but-unserved query for replay
     * elsewhere: pending journal entries (id, payload = embedding +
     * search params, original admitSeconds) are handed off in
     * admission order, the batch queue is cleared, and each
     * evacuation is recorded as a non-silent shed (metrics + flight
     * ledger). The caller owns re-admission under a fresh
     * namespaced id.
     */
    std::vector<recovery::JournalEntry<QueryPayload>> evacuate();

    /**
     * Quarantine this core now (fleet kill switch / chaos tooling):
     * subsequent admissions shed until drain() escalates to a reset
     * or the router evacuates. Requires an enabled health policy.
     */
    void forceQuarantine();

    /** Serve every currently ready batch; outcomes in query order. */
    std::vector<ServeOutcome> pump();

    /**
     * pump() for open-loop traffic: also ships batches whose oldest
     * pending query has aged past BatchPolicy::maxLingerSeconds as
     * of the observed arrival clock `now`. Service of a lingered
     * batch cannot start before its close-out instant (the core's
     * clock is ratcheted there first), so served latency is
     * independent of how often the driver polls.
     */
    std::vector<ServeOutcome> pumpUntil(double now);

    /**
     * Swap in the next corpus epoch: an epoch-overlaid spec (same
     * dim, same shard range; numChunks grown by the overlay's
     * inserts) whose CorpusEpochView the caller keeps alive. The
     * epoch barrier is a drain(): every query admitted under the
     * old epoch is served against it first — the returned outcomes
     * — then the device footprint is torn down and rebuilt in the
     * reset choreography's allocation order and `delta_bytes` of
     * incremental re-staging (inserted rows + refreshed tombstone
     * plane) is charged over PCIe. Queries admitted afterwards
     * observe exactly the new epoch. Not supported with IVF serving
     * (the clustering would need a rebuild; the retriever's IVF
     * planner asserts it never sees an overlay).
     */
    std::vector<ServeOutcome>
    applyMutation(const baseline::RagCorpusSpec &epoch_spec,
                  uint64_t new_epoch, uint64_t delta_bytes);

    /** Epoch of the corpus snapshot this server currently serves. */
    uint64_t corpusEpoch() const { return epoch_; }

    /**
     * Serve everything still pending, escalating as needed: parked
     * batches on a Quarantined core trigger a core reset + journal
     * replay (up to `maxResets`), after which anything still
     * undelivered is forced through the CPU fallback. On return the
     * admission journal is empty — every admitted query has exactly
     * one outcome.
     */
    std::vector<ServeOutcome> drain();

    /** Synchronous single-query serve (bypasses the queue). */
    ServeOutcome serve(const std::vector<int16_t> &query,
                       RagSearchParams search = {});

    /**
     * Cumulative simulated seconds this core has spent serving
     * (device attempts, PCIe, CPU fallbacks). Queue waits are
     * measured against this clock; aggregate QPS = queries / the
     * busiest core's busySeconds.
     */
    double busySeconds() const { return busySeconds_; }

    CircuitBreaker &breaker() { return breaker_; }
    const BatchFormer &former() const { return former_; }
    gdl::GdlContext &host() { return host_; }
    const dram::DramSystem &hbm() const { return hbm_; }
    const ServerConfig &config() const { return cfg_; }

    /** This shard's coarse quantizer (null unless cfg.ivf.enabled). */
    const baseline::IvfClustering *clustering() const
    {
        return clustering_.get();
    }

    /** The current retriever (rebuilt by every reset or mutation). */
    const RagRetriever &retriever() const { return *retriever_; }

    /** This core's health watchdog (ladder state, transitions). */
    const recovery::HealthMonitor &health() const { return health_; }

    /**
     * This core's query-lifecycle flight recorder (span ledger for
     * every journaled admission; see obs/flight.hh). Disabled unless
     * cfg.flight says otherwise.
     */
    const obs::FlightRecorder &flightRecorder() const
    {
        return flight_;
    }

    /** Core resets performed so far. */
    unsigned resets() const { return resets_; }

    /** Journaled queries replayed across resets so far. */
    uint64_t replayedQueries() const { return replayed_; }

    /** Admitted queries whose outcome has not been delivered yet. */
    size_t journalOutstanding() const
    {
        return journal_.outstanding();
    }

    /**
     * Reset this core now (bench/chaos tooling): quarantine it if
     * the health policy is enabled, then run the full reset +
     * re-stage + replay choreography regardless.
     */
    gdl::ResetOutcome forceReset();

    /**
     * Corpus-shard bytes a reset must re-stage over PCIe: the core's
     * slice of the embedding matrix, capped at its share of device
     * DRAM (only the resident slice is lost — the stream beyond it
     * was never device-resident).
     */
    uint64_t restageBytes() const;

  private:
    /**
     * Serve one formed batch through the fault-tolerant path.
     * `journaled` marks queries tracked in the admission journal
     * (pipeline path); `allow_park` lets the batch park un-served
     * when the core quarantines mid-retry (drain() escalates it).
     * A parked batch returns no outcomes.
     */
    std::vector<ServeOutcome>
    serveBatch(std::vector<PendingQuery> batch, bool journaled,
               bool allow_park);

    /** The reset + re-stage + journal-replay choreography. */
    gdl::ResetOutcome performReset();

    /**
     * One whole-batch device attempt: stage the queries over PCIe,
     * run retrieveBatch under the deadline, read the staged top-k
     * ids back. On success fills outs[*].{ids,run}.
     */
    Status tryDeviceBatch(const std::vector<PendingQuery> &batch,
                          std::vector<ServeOutcome> &outs);

    /**
     * Exact CPU retrieval at Xeon latency; always succeeds. Honours
     * the query's search params: IVF params go through the IVF
     * golden (same clustering the device probes, so functional
     * answers bit-compare), a bare filter through the filtered flat
     * scan.
     */
    void cpuFallback(const std::vector<int16_t> &query,
                     const RagSearchParams &search,
                     ServeOutcome &out);

    apu::ApuDevice &dev_;
    baseline::RagCorpusSpec spec_;
    unsigned core_;
    const baseline::IndexFlatI16 *golden_;
    uint64_t corpusSeed_;
    ServerConfig cfg_;
    CircuitBreaker breaker_;
    baseline::XeonTimingModel xeon_;
    dram::DramSystem hbm_;

    // Rebuilt by performReset (a reset loses the device footprint);
    // unique_ptr/optional so teardown and re-construction run in the
    // original allocation order, which the DramAllocator's free-list
    // recycling turns into identical addresses — the replay
    // bit-identity hinges on that.
    std::unique_ptr<RagRetriever> retriever_;
    gdl::GdlContext host_;
    std::optional<gdl::DeviceBuffer> qbuf_; ///< maxBatch query stage

    // Host-side IVF state (cfg.ivf.enabled): the coarse quantizer
    // for this shard and, when a golden index exists, its IVF twin.
    // Both survive core resets — a reset loses the device footprint,
    // not the host's clustering.
    std::unique_ptr<baseline::IvfClustering> clustering_;
    std::unique_ptr<baseline::IndexIvfI16> goldenIvf_;

    BatchFormer former_;
    recovery::HealthMonitor health_;
    recovery::ReplayJournal<QueryPayload> journal_;
    obs::FlightRecorder flight_;
    double busySeconds_ = 0;
    double batchSecondsEwma_ = 0; ///< admission-delay predictor
    unsigned resets_ = 0;
    uint64_t replayed_ = 0;
    uint64_t epoch_ = 0; ///< corpus epoch currently staged
};

} // namespace cisram::kernels

#endif // CISRAM_KERNELS_SERVING_HH
