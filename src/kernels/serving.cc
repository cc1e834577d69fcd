#include "kernels/serving.hh"

#include <algorithm>
#include <utility>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace cisram::kernels {

using baseline::IndexFlatI16;
using baseline::RagCorpusSpec;

const char *
breakerStateName(BreakerState s)
{
    switch (s) {
      case BreakerState::Closed:   return "closed";
      case BreakerState::Open:     return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    cisram_panic("unknown breaker state");
}

bool
CircuitBreaker::allowRequest()
{
    switch (state_) {
      case BreakerState::Closed:
        return true;
      case BreakerState::HalfOpen:
        // One probe at a time: further queries fall back until the
        // probe's outcome is recorded.
        return false;
      case BreakerState::Open:
        // Exactly `cooldown_` fallback queries pass while Open; the
        // next call admits the probe.
        if (remainingCooldown_ > 0) {
            --remainingCooldown_;
            return false;
        }
        state_ = BreakerState::HalfOpen;
        return true; // this query is the probe
    }
    cisram_panic("unknown breaker state");
}

void
CircuitBreaker::recordSuccess()
{
    if (state_ == BreakerState::HalfOpen) {
        metrics::Registry::get()
            .counter("breaker.probe_success")
            .inc();
    }
    consecutive_ = 0;
    state_ = BreakerState::Closed;
}

void
CircuitBreaker::recordFailure()
{
    if (state_ == BreakerState::HalfOpen) {
        metrics::Registry::get()
            .counter("breaker.probe_failure")
            .inc();
        trip(); // failed probe: back to Open, cooldown restarts
        return;
    }
    ++consecutive_;
    if (state_ == BreakerState::Closed && consecutive_ >= threshold_)
        trip();
}

void
CircuitBreaker::trip()
{
    state_ = BreakerState::Open;
    remainingCooldown_ = cooldown_;
    ++trips_;
    metrics::Registry::get().counter("fault.breaker_trips").inc();
}

// ---------------------------------------------------------------------
// BatchFormer

BatchFormer::BatchFormer(BatchPolicy policy) : policy_(policy)
{
    cisram_assert(policy_.maxBatch >= 1 && policy_.maxBatch <= 8,
                  "maxBatch must be 1..8 (one accumulator VR per "
                  "query in retrieveBatch)");
}

void
BatchFormer::admit(PendingQuery q)
{
    queue_.push_back(Entry{std::move(q), ++admissions_});
}

bool
BatchFormer::batchReady() const
{
    if (queue_.empty())
        return false;
    if (queue_.size() >= policy_.maxBatch)
        return true;
    return admissions_ - queue_.front().serial >=
        policy_.maxLingerAdmissions;
}

bool
BatchFormer::batchReadyAt(double now) const
{
    if (batchReady())
        return true;
    // Time-based close-out: admission-count linger never fires for
    // the tail of a sparse trace (the later admissions simply never
    // arrive), so the oldest pending query also ships once the
    // observed arrival clock has moved maxLingerSeconds past it.
    return policy_.maxLingerSeconds > 0 && !queue_.empty() &&
        now - queue_.front().query.admitSeconds >=
            policy_.maxLingerSeconds;
}

double
BatchFormer::frontAdmitSeconds() const
{
    cisram_assert(!queue_.empty(),
                  "frontAdmitSeconds on an empty queue");
    return queue_.front().query.admitSeconds;
}

std::vector<PendingQuery>
BatchFormer::takeBatch()
{
    // A device batch shares one coarse pass and one filter plane,
    // so only the maximal FIFO prefix with the *front* query's
    // search params ships together. Never reorder around a param
    // boundary: FIFO fairness beats batch fullness.
    size_t n = std::min(queue_.size(), policy_.maxBatch);
    size_t take = 0;
    while (take < n &&
           queue_[take].query.search == queue_.front().query.search)
        ++take;
    std::vector<PendingQuery> out;
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
        out.push_back(std::move(queue_.front().query));
        queue_.pop_front();
    }
    if (take > 0)
        ++batches_;
    return out;
}

// ---------------------------------------------------------------------
// DeviceServer

Status
validateIvfLists(const apu::ApuSpec &spec, size_t ivf_lists)
{
    if (ivf_lists > spec.vrLength)
        return Status::invalidArgument(detail::concat(
            "IVF centroid table of ", ivf_lists, " lists exceeds one ",
            spec.vrLength, "-lane VR (the coarse pass scores it as "
            "one)"));
    return Status::okStatus();
}

Status
validateFunctionalShard(const apu::ApuSpec &spec,
                        const RagCorpusSpec &shard, size_t ivf_lists)
{
    Status lists = validateIvfLists(spec, ivf_lists);
    if (!lists.ok())
        return lists;
    constexpr size_t kMaxChunks = size_t(1) << 21;
    if (shard.numChunks > kMaxChunks)
        return Status::invalidArgument(detail::concat(
            "functional shard of ", shard.numChunks,
            " chunks exceeds the ", kMaxChunks,
            "-chunk functional corpus limit"));
    uint64_t supertiles = divCeil(shard.numChunks, spec.vrLength);
    uint64_t vectors = supertiles * shard.dim;
    if (ivf_lists > 0)
        vectors += (supertiles + ivf_lists) * shard.dim + shard.dim + 1;
    uint64_t staged = vectors * spec.vrBytes();
    uint64_t share = spec.l4Bytes / spec.numCores;
    if (staged > share)
        return Status::invalidArgument(detail::concat(
            "functional shard of ", shard.numChunks, " x ", shard.dim,
            ivf_lists > 0 ? " and its IVF lists" : "",
            " keeps ", staged, " bytes of planes staged, over its "
            "core's L4 share of ", share, " bytes"));
    return Status::okStatus();
}

DeviceServer::DeviceServer(apu::ApuDevice &dev, RagCorpusSpec spec,
                           unsigned core, const IndexFlatI16 *golden,
                           uint64_t corpus_seed, ServerConfig cfg)
    : dev_(dev), spec_(spec), core_(core), golden_(golden),
      corpusSeed_(corpus_seed), cfg_(cfg),
      breaker_(cfg.breakerThreshold, cfg.breakerCooldown),
      hbm_(dram::hbm2eConfig()),
      retriever_(std::make_unique<RagRetriever>(dev, hbm_, spec,
                                                cfg.topK, core)),
      host_(dev),
      qbuf_(std::in_place, host_,
            cfg.batch.maxBatch * spec.dim * 2),
      former_(cfg.batch),
      health_(core, cfg.health, cfg.deviceIndex),
      flight_(core, cfg.flight)
{
    size_t lists = cfg_.ivf.enabled ? cfg_.ivf.build.numLists : 0;
    Status st = dev.core(core).functional()
        ? validateFunctionalShard(dev.spec(), spec_, lists)
        : validateIvfLists(dev.spec(), lists);
    cisram_assert(st.ok(), "DeviceServer: ", st.message());
    host_.setCoreHint(static_cast<int>(core));
    host_.setDeviceHint(cfg.deviceIndex);
    hbm_.setScrubConfig(cfg.scrub);
    hbm_.setDeviceIndex(cfg.deviceIndex);
    if (cfg_.ivf.enabled) {
        // Host state: trained once per shard (from the golden's rows
        // when there is one), survives core resets. The retriever
        // stages the lists and centroids on device as batches probe
        // them, once per retriever lifetime.
        clustering_ = std::make_unique<baseline::IvfClustering>(
            baseline::IvfClustering::build(spec_, corpusSeed_,
                                           cfg_.ivf.build, golden_));
        if (golden_)
            goldenIvf_ = std::make_unique<baseline::IndexIvfI16>(
                *golden_, *clustering_, spec_, corpusSeed_);
    }
}

Status
DeviceServer::enqueue(uint64_t id, std::vector<int16_t> embedding,
                      RagSearchParams search, AdmitClass cls)
{
    return enqueueAt(id, std::move(embedding), busySeconds_,
                     search, std::move(cls));
}

Status
DeviceServer::enqueueAt(uint64_t id, std::vector<int16_t> embedding,
                        double admit_seconds,
                        RagSearchParams search, AdmitClass cls)
{
    cisram_assert(embedding.size() == spec_.dim,
                  "query dim mismatch");
    cisram_assert(search.nprobe == 0 || cfg_.ivf.enabled,
                  "query #", id, " requests nprobe=", search.nprobe,
                  " but the server has no IVF clustering "
                  "(ServerConfig::ivf.enabled)");
    auto &reg = metrics::Registry::get();
    auto shed_labels = [&](const char *reason) {
        return metrics::Labels{
            {"device", std::to_string(cfg_.deviceIndex)},
            {"core", std::to_string(core_)},
            {"reason", reason},
            {"tenant", cls.tenant},
            {"slo_class", std::to_string(cls.sloClass)}};
    };

    if (cfg_.health.enabled &&
        health_.state() == recovery::CoreState::Quarantined) {
        if (health_.observeShed() && resets_ < cfg_.maxResets) {
            // The quarantine has aged out: pay the reset now, then
            // admit — the core comes back Healthy.
            performReset();
        } else {
            reg.counter("recovery.shed", shed_labels("quarantine"))
                .inc();
            flight_.recordShed(id, busySeconds_, "quarantine");
            return Status::resourceExhausted(detail::concat(
                "core ", core_, " is quarantined: query #", id,
                " shed (re-route or retry later)"));
        }
    }

    // Per-class cap scaling (AdmissionPolicy::sloClasses): class c
    // keeps (C-c)/C of each budget, so under overload the lowest
    // class hits its tighter caps — and sheds — first.
    unsigned n_cls = cfg_.admission.sloClasses;
    unsigned c = n_cls > 1
        ? std::min(cls.sloClass, n_cls - 1)
        : 0;
    double cls_share = n_cls > 1
        ? static_cast<double>(n_cls - c) / n_cls
        : 1.0;
    size_t depth_cap = static_cast<size_t>(
        static_cast<double>(cfg_.admission.maxQueueDepth) *
        cls_share);
    double delay_cap =
        cfg_.admission.maxQueueDelaySeconds * cls_share;

    if (cfg_.admission.maxQueueDepth > 0 &&
        former_.depth() >= depth_cap) {
        reg.counter("recovery.shed", shed_labels("depth")).inc();
        flight_.recordShed(id, busySeconds_, "depth");
        return Status::resourceExhausted(detail::concat(
            "core ", core_, " admission queue full: ",
            former_.depth(), " pending at the ", depth_cap,
            "-query cap (class ", cls.sloClass, "), query #", id,
            " shed"));
    }
    if (cfg_.admission.maxQueueDelaySeconds > 0 &&
        batchSecondsEwma_ > 0) {
        // Predicted wait = queued-batches x the service-time EWMA
        // (DESIGN.md section 7): the `depth` queries ahead of this
        // one drain in ceil(depth / maxBatch) batches. The previous
        // floor-plus-one form overcounted a full batch whenever the
        // depth was an exact multiple of maxBatch — including
        // shedding on an idle server (depth 0) whose EWMA alone
        // exceeded the budget.
        double batches_ahead = static_cast<double>(
            divCeil(former_.depth(), cfg_.batch.maxBatch));
        double predicted = batches_ahead * batchSecondsEwma_;
        if (predicted > delay_cap) {
            reg.counter("recovery.shed", shed_labels("deadline"))
                .inc();
            flight_.recordShed(id, busySeconds_, "deadline");
            return Status::resourceExhausted(detail::concat(
                "core ", core_, " predicted queue delay ",
                predicted * 1e3, " ms exceeds the ",
                delay_cap * 1e3, " ms admission budget (class ",
                cls.sloClass, "), query #", id, " shed"));
        }
    }

    journal_.admit(id, QueryPayload{embedding, search, cls},
                   admit_seconds);
    flight_.recordAdmit(id, admit_seconds);
    former_.admit(PendingQuery{id, std::move(embedding),
                               admit_seconds, search,
                               std::move(cls)});
    return Status::okStatus();
}

void
DeviceServer::advanceClock(double t)
{
    busySeconds_ = std::max(busySeconds_, t);
}

std::vector<recovery::JournalEntry<QueryPayload>>
DeviceServer::evacuate()
{
    auto handed = journal_.handOffPending();
    former_ = BatchFormer(cfg_.batch);
    auto &shed = metrics::Registry::get().counter(
        "recovery.evacuated",
        {{"device", std::to_string(cfg_.deviceIndex)},
         {"core", std::to_string(core_)}});
    for (const auto &e : handed) {
        shed.inc();
        flight_.recordShed(e.id, busySeconds_, "failover");
    }
    return handed;
}

void
DeviceServer::forceQuarantine()
{
    cisram_assert(cfg_.health.enabled,
                  "forceQuarantine needs an enabled health policy");
    health_.forceQuarantine();
}

std::vector<ServeOutcome>
DeviceServer::pump()
{
    std::vector<ServeOutcome> served;
    while (former_.batchReady()) {
        auto outs = serveBatch(former_.takeBatch(), true, true);
        served.insert(served.end(),
                      std::make_move_iterator(outs.begin()),
                      std::make_move_iterator(outs.end()));
    }
    return served;
}

std::vector<ServeOutcome>
DeviceServer::drain()
{
    std::vector<ServeOutcome> served = pump();
    // Escalation loop: serve the queue; if parked work remains on a
    // quarantined core, reset + replay (bounded); past the reset
    // budget, force the remainder through the CPU fallback. Every
    // journaled query gets exactly one outcome before we return.
    while (true) {
        bool allow_park =
            cfg_.health.enabled && resets_ < cfg_.maxResets;
        while (!former_.empty()) {
            auto outs =
                serveBatch(former_.takeBatch(), true, allow_park);
            served.insert(served.end(),
                          std::make_move_iterator(outs.begin()),
                          std::make_move_iterator(outs.end()));
            if (allow_park &&
                health_.state() ==
                    recovery::CoreState::Quarantined)
                break; // stop feeding a quarantined core
        }
        if (journal_.outstanding() == 0)
            return served;
        if (cfg_.health.enabled &&
            health_.state() == recovery::CoreState::Quarantined &&
            resets_ < cfg_.maxResets) {
            performReset(); // re-admits the parked queries
            continue;
        }
        // Reset budget exhausted (or health disabled): re-admit
        // whatever is still parked and serve it without parking —
        // the CPU fallback guarantees delivery.
        auto pend = journal_.pending();
        former_ = BatchFormer(cfg_.batch);
        for (const auto *e : pend)
            former_.admit(PendingQuery{e->id, e->payload.embedding,
                                       e->admitSeconds,
                                       e->payload.search,
                                       e->payload.cls});
    }
}

std::vector<ServeOutcome>
DeviceServer::pumpUntil(double now)
{
    std::vector<ServeOutcome> served;
    while (former_.batchReadyAt(now)) {
        if (!former_.batchReady()) {
            // Time-based close-out: service starts at the close-out
            // instant, never earlier — otherwise served latency
            // would depend on how often the driver polls.
            advanceClock(std::min(
                now, former_.frontAdmitSeconds() +
                         cfg_.batch.maxLingerSeconds));
        }
        auto outs = serveBatch(former_.takeBatch(), true, true);
        served.insert(served.end(),
                      std::make_move_iterator(outs.begin()),
                      std::make_move_iterator(outs.end()));
    }
    return served;
}

std::vector<ServeOutcome>
DeviceServer::applyMutation(const RagCorpusSpec &epoch_spec,
                            uint64_t new_epoch, uint64_t delta_bytes)
{
    cisram_assert(!cfg_.ivf.enabled,
                  "corpus mutation is not supported with IVF "
                  "serving (the clustering would need a rebuild)");
    cisram_assert(new_epoch == epoch_ + 1, "epoch must advance by 1 "
                  "(have ", epoch_, ", asked for ", new_epoch, ")");
    cisram_assert(epoch_spec.dim == spec_.dim,
                  "mutation cannot change embedding dim");
    cisram_assert(epoch_spec.epochView != nullptr &&
                      epoch_spec.epochView->epoch == new_epoch,
                  "epoch spec must carry the new epoch's view");

    // Epoch barrier: everything admitted under the old epoch is
    // served against the old snapshot first — snapshot consistency
    // is per-admission, never per-service-time.
    std::vector<ServeOutcome> served = drain();

    // Incremental re-stage, in the reset choreography's teardown /
    // rebuild order so the DramAllocator hands identical addresses
    // back and post-mutation batches replay bit-identically.
    qbuf_.reset();
    retriever_.reset();
    spec_ = epoch_spec;
    if (delta_bytes > 0) {
        // Charge the delta transfer (inserted rows + refreshed
        // tombstone plane) over PCIe through a bounce buffer. The
        // staged content itself is hash-generated on demand, so a
        // CRC-exhausted transfer costs time but cannot corrupt the
        // corpus; bounded retries, then proceed.
        gdl::HostStats before = host_.stats();
        gdl::DeviceBuffer stage(host_, delta_bytes);
        std::vector<uint8_t> zeros(delta_bytes, 0);
        for (unsigned a = 0; a < 3; ++a) {
            Status st = host_.tryMemCpyToDev(
                stage.handle(), zeros.data(), delta_bytes);
            if (st.ok())
                break;
        }
        busySeconds_ +=
            host_.stats().pcieSeconds - before.pcieSeconds;
    }
    hbm_.clearLatents(); // freshly re-encoded delta
    retriever_ = std::make_unique<RagRetriever>(dev_, hbm_, spec_,
                                                cfg_.topK, core_);
    qbuf_.emplace(host_, cfg_.batch.maxBatch * spec_.dim * 2);
    epoch_ = new_epoch;
    metrics::Registry::get()
        .counter("mutation.epochs_applied",
                 {{"device", std::to_string(cfg_.deviceIndex)},
                  {"core", std::to_string(core_)}})
        .inc();
    metrics::Registry::get()
        .counter("mutation.restaged_bytes",
                 {{"device", std::to_string(cfg_.deviceIndex)},
                  {"core", std::to_string(core_)}})
        .inc(static_cast<double>(delta_bytes));
    return served;
}

ServeOutcome
DeviceServer::serve(const std::vector<int16_t> &query,
                    RagSearchParams search)
{
    cisram_assert(query.size() == spec_.dim, "query dim mismatch");
    cisram_assert(search.nprobe == 0 || cfg_.ivf.enabled,
                  "serve() requests nprobe=", search.nprobe,
                  " but the server has no IVF clustering");
    std::vector<PendingQuery> one;
    one.push_back(PendingQuery{0, query, busySeconds_, search});
    return serveBatch(std::move(one), false, false)[0];
}

uint64_t
DeviceServer::restageBytes() const
{
    uint64_t cores = dev_.numCores();
    uint64_t shard = spec_.embeddingBytes() / cores;
    uint64_t resident = dev_.l4().capacity() / (4 * cores);
    return std::min(shard, resident);
}

gdl::ResetOutcome
DeviceServer::performReset()
{
    if (cfg_.health.enabled) {
        if (health_.state() != recovery::CoreState::Quarantined)
            health_.forceQuarantine();
        health_.beginReset();
    }
    auto pend = journal_.pending();
    double resetStart = busySeconds_;

    // Tear down the device footprint in reverse allocation order,
    // then rebuild in the original order: the DramAllocator's
    // size-keyed free lists hand the same addresses back, so the
    // replayed batches run against a bit-identical layout.
    qbuf_.reset();
    retriever_.reset();
    gdl::ResetOutcome out = host_.resetCore(core_, restageBytes());
    busySeconds_ += out.seconds;
    hbm_.clearLatents(); // the re-staged shard is freshly encoded
    retriever_ = std::make_unique<RagRetriever>(dev_, hbm_, spec_,
                                                cfg_.topK, core_);
    qbuf_.emplace(host_, cfg_.batch.maxBatch * spec_.dim * 2);

    // A reset core has no failure history: fresh breaker, and the
    // parked queries go back through batch formation with their
    // original admission timestamps (exactly-once: they are still
    // journaled, and only delivery completes them).
    breaker_ = CircuitBreaker(cfg_.breakerThreshold,
                              cfg_.breakerCooldown);
    former_ = BatchFormer(cfg_.batch);
    for (const auto *e : pend)
        former_.admit(PendingQuery{e->id, e->payload.embedding,
                                   e->admitSeconds,
                                   e->payload.search,
                                   e->payload.cls});
    replayed_ += pend.size();
    ++resets_;
    if (flight_.enabled()) {
        // Reset time is charged to the core clock, not to any one
        // query's served latency — it surfaces as queue wait in the
        // replayed queries' final rounds. The flow arrows tie each
        // replay back to the reset that caused it.
        std::vector<uint64_t> ids;
        ids.reserve(pend.size());
        for (const auto *e : pend)
            ids.push_back(e->id);
        flight_.recordReset(resets_, resetStart, out.seconds, ids);
    }
    metrics::Registry::get()
        .counter("recovery.replayed_queries",
                 {{"device", std::to_string(cfg_.deviceIndex)},
                  {"core", std::to_string(core_)}})
        .inc(static_cast<double>(pend.size()));
    if (cfg_.health.enabled)
        health_.completeReset();
    return out;
}

gdl::ResetOutcome
DeviceServer::forceReset()
{
    return performReset();
}

std::vector<ServeOutcome>
DeviceServer::serveBatch(std::vector<PendingQuery> batch,
                         bool journaled, bool allow_park)
{
    size_t b = batch.size();
    cisram_assert(b >= 1, "serveBatch needs at least one query");
    for (size_t q = 1; q < b; ++q)
        cisram_assert(batch[q].search == batch[0].search,
                      "serveBatch: mixed search params in one batch "
                      "(the batch former must split on them)");
    std::vector<ServeOutcome> outs(b);
    double start = busySeconds_;
    auto &reg = metrics::Registry::get();

    bool quarantined =
        cfg_.health.enabled &&
        health_.state() == recovery::CoreState::Quarantined;
    if (quarantined && journaled && allow_park) {
        // The core is already known-bad: park the whole batch
        // untouched (it stays outstanding in the journal) and let
        // drain() escalate to the reset instead of burning retry
        // deadlines or the slow CPU path.
        reg.counter("recovery.parked_batches",
                    {{"device", std::to_string(cfg_.deviceIndex)},
                     {"core", std::to_string(core_)}})
            .inc();
        return {};
    }

    reg.histogram("serving.batch_size")
        .observe(static_cast<double>(b));
    for (size_t q = 0; q < b; ++q) {
        outs[q].id = batch[q].id;
        outs[q].batchSize = b;
        outs[q].cls = batch[q].cls;
        outs[q].queueWaitSeconds = start - batch[q].admitSeconds;
        reg.histogram("serving.queue_wait_seconds")
            .observe(outs[q].queueWaitSeconds);
    }
    bool record = journaled && flight_.enabled();
    if (record) {
        // One service round per query; the recorded wait duration is
        // the exact double assigned to queueWaitSeconds above, so the
        // ledger reconciles bit-for-bit (see obs/flight.hh).
        for (size_t q = 0; q < b; ++q) {
            flight_.beginRound(outs[q].id, start);
            flight_.span(outs[q].id, obs::Stage::QueueWait, 0,
                         batch[q].admitSeconds,
                         outs[q].queueWaitSeconds);
        }
    }
    bool device_ok = false;
    bool parked = false;
    if (!quarantined && breaker_.allowRequest()) {
        for (unsigned a = 0; a < cfg_.retry.maxAttempts; ++a) {
            for (auto &o : outs)
                ++o.attempts;
            gdl::HostStats before = host_.stats();
            uint64_t ecc_before = hbm_.eccStats().doubleDetected;
            Status st = tryDeviceBatch(batch, outs);
            if (st.ok()) {
                breaker_.recordSuccess();
                double pcie =
                    host_.stats().pcieSeconds - before.pcieSeconds;
                double retrieval = 0;
                for (const auto &o : outs)
                    retrieval += o.run.stages.total();
                if (record) {
                    // hostSeconds so far = prior failed attempts;
                    // this attempt's PCIe staging starts there.
                    double tA = start + outs[0].hostSeconds;
                    double tC = tA + pcie;
                    RagStageLatency sum;
                    for (const auto &o : outs) {
                        sum.loadEmbedding +=
                            o.run.stages.loadEmbedding;
                        sum.loadQuery += o.run.stages.loadQuery;
                        sum.calcDistance +=
                            o.run.stages.calcDistance;
                        sum.topkAggregation +=
                            o.run.stages.topkAggregation;
                        sum.returnTopk += o.run.stages.returnTopk;
                        sum.overlapHidden +=
                            o.run.stages.overlapHidden;
                    }
                    for (const auto &o : outs) {
                        flight_.span(o.id, obs::Stage::PcieStage,
                                     a + 1, tA, pcie);
                        flight_.span(o.id, obs::Stage::DeviceCompute,
                                     a + 1, tC, retrieval);
                        // Table 8 stage shares as children of the
                        // compute span (whole-batch pass: every
                        // query waits for all of it). Laid out
                        // end-to-end; overlap_hidden is the slice
                        // the double-buffer hid (total() subtracts
                        // it).
                        double tS = tC;
                        auto child = [&](const char *dname,
                                         double dur) {
                            flight_.span(o.id,
                                         obs::Stage::ComputeDetail,
                                         0, tS, dur, dname);
                            tS += dur;
                        };
                        child("load_embedding", sum.loadEmbedding);
                        child("load_query", sum.loadQuery);
                        child("calc_distance", sum.calcDistance);
                        child("topk_aggregation",
                              sum.topkAggregation);
                        child("return_topk", sum.returnTopk);
                        child("overlap_hidden", sum.overlapHidden);
                    }
                }
                for (auto &o : outs) {
                    o.ok = true;
                    o.fromDevice = true;
                    // Every query in the batch waits for the whole
                    // batch's corpus pass.
                    o.retrievalSeconds = retrieval;
                    o.hostSeconds += pcie;
                }
                device_ok = true;
                break;
            }
            // Failed attempt: charge the simulated time the attempt
            // actually consumed — PCIe transfers (including CRC
            // retries), launch overhead, and device cycles capped at
            // the deadline (the host abandons the task there, so
            // only DeadlineExceeded attempts pay the full deadline;
            // an immediate CRC mismatch or device OOM costs
            // microseconds, not the 0.5 s budget).
            const gdl::HostStats &hs = host_.stats();
            double attempt =
                (hs.pcieSeconds - before.pcieSeconds) +
                (hs.invokeSeconds - before.invokeSeconds) +
                std::min(hs.deviceSeconds - before.deviceSeconds,
                         cfg_.retry.deadlineSeconds);
            if (record) {
                double tA = start + outs[0].hostSeconds;
                for (const auto &o : outs)
                    flight_.span(o.id, obs::Stage::DeviceAttempt,
                                 a + 1, tA, attempt, st.toString());
            }
            for (auto &o : outs) {
                o.lastError = st.toString();
                o.hostSeconds += attempt;
            }
            reg.counter("fault.retries", {{"site", "query"}}).inc();

            // Feed the watchdog this attempt's fault ledger delta;
            // if it quarantines the core mid-retry, stop burning
            // deadline budget on a wedged device.
            if (cfg_.health.enabled) {
                recovery::FaultLedgerDelta d;
                d.taskTimeouts =
                    hs.tasksTimedOut - before.tasksTimedOut;
                d.pcieExhausted =
                    hs.pcieErrors - before.pcieErrors;
                d.eccDoubles = static_cast<unsigned>(
                    hbm_.eccStats().doubleDetected - ecc_before);
                health_.observeFaults(d);
                if (health_.state() ==
                        recovery::CoreState::Quarantined &&
                    journaled && allow_park) {
                    parked = true;
                    break;
                }
            }
        }
        if (!device_ok && !parked)
            breaker_.recordFailure();
    }

    if (parked) {
        // The batch stays outstanding in the journal; drain() will
        // reset the core and replay it. Charge the time the failed
        // attempts consumed — the clock must agree between the
        // faulted run and its replayed continuation.
        busySeconds_ = start + outs[0].hostSeconds;
        if (record)
            // The round's charges die with the park: the replay
            // builds a fresh outcome. Keep the spans (abandoned) for
            // the timeline, drop them from reconciliation.
            for (const auto &o : outs)
                flight_.park(o.id, busySeconds_);
        reg.counter("recovery.parked_batches",
                    {{"device", std::to_string(cfg_.deviceIndex)},
                     {"core", std::to_string(core_)}})
            .inc();
        return {};
    }

    double elapsed = outs[0].hostSeconds;
    if (device_ok) {
        elapsed += outs[0].retrievalSeconds;
    } else {
        // The CPU serves the batch's queries one after another.
        for (size_t q = 0; q < b; ++q) {
            double tF = start + elapsed;
            cpuFallback(batch[q].embedding, batch[q].search,
                        outs[q]);
            elapsed += outs[q].retrievalSeconds;
            if (record)
                flight_.span(outs[q].id, obs::Stage::CpuFallback, 0,
                             tF, outs[q].retrievalSeconds);
        }
    }
    busySeconds_ = start + elapsed;
    // Feed the admission-delay predictor: an EWMA of the batch
    // service time, updated only from served batches (parked ones
    // return above), so the enqueue-time delay estimate is a pure
    // function of the admission/served sequence.
    batchSecondsEwma_ = batchSecondsEwma_ == 0.0
        ? elapsed
        : 0.75 * batchSecondsEwma_ + 0.25 * elapsed;

    if (journaled) {
        for (const auto &o : outs)
            journal_.complete(o.id);
    }
    if (record)
        for (const auto &o : outs)
            flight_.complete(o.id,
                             obs::FlightCompletion{
                                 busySeconds_, o.fromDevice,
                                 o.attempts, o.batchSize,
                                 o.servedSeconds()});
    health_.observeQueries(static_cast<unsigned>(b));

    reg.counter("serving.batches").inc();
    for (const auto &o : outs)
        reg.histogram("serving.served_seconds")
            .observe(o.servedSeconds());
    return outs;
}

Status
DeviceServer::tryDeviceBatch(const std::vector<PendingQuery> &batch,
                             std::vector<ServeOutcome> &outs)
{
    size_t b = batch.size();
    size_t dim = spec_.dim;

    // Stage the batch's query vectors contiguously over PCIe.
    std::vector<int16_t> staged(b * dim);
    for (size_t q = 0; q < b; ++q)
        std::copy(batch[q].embedding.begin(),
                  batch[q].embedding.end(),
                  staged.begin() + q * dim);
    Status st = host_.tryMemCpyToDev(qbuf_->handle(), staged.data(),
                                     b * dim * 2);
    if (!st.ok())
        return st;

    std::vector<std::vector<int16_t>> queries(b);
    for (size_t q = 0; q < b; ++q)
        queries[q] = batch[q].embedding;

    RagBatchOptions opts;
    opts.overlapStream = cfg_.overlapStream;
    opts.search = batch[0].search;
    opts.ivf = clustering_.get();

    std::vector<RagRunResult> rs;
    st = host_.runTaskTimeoutOn(
        core_, cfg_.retry.deadlineSeconds, [&](apu::ApuCore &) {
            rs = retriever_->retrieveBatch(queries, corpusSeed_,
                                           opts);
            return 0;
        });
    if (!st.ok())
        return st;
    // One corpus pass serves the whole batch, so an uncorrectable
    // ECC error taints every result in it.
    for (const auto &r : rs)
        if (!r.status.ok())
            return r.status;

    // Read the staged ids back: the exact staged count in
    // functional mode (0 is a real answer — an empty metadata
    // filter yields no survivors, and reading topK anyway would
    // surface stale buffer contents as ids), fixed-size in timing
    // mode (no functional results exist to count).
    bool functional = dev_.core(core_).functional();
    for (size_t q = 0; q < b; ++q) {
        size_t n = functional ? rs[q].topkIdsCount : cfg_.topK;
        outs[q].ids.assign(n, 0);
        if (n > 0) {
            st = host_.tryMemCpyFromDev(
                outs[q].ids.data(),
                gdl::MemHandle{rs[q].topkIdsAddr},
                n * sizeof(uint32_t));
            if (!st.ok())
                return st;
        }
        outs[q].run = rs[q];
    }
    return Status::okStatus();
}

void
DeviceServer::cpuFallback(const std::vector<int16_t> &query,
                          const RagSearchParams &search,
                          ServeOutcome &out)
{
    metrics::Registry::get().counter("fault.fallbacks").inc();
    if (golden_) {
        // Same params, same clustering as the device path, so the
        // fallback's functional answer bit-compares with the device
        // answer the query would otherwise have gotten.
        std::vector<baseline::Hit> hits;
        if (spec_.epochView)
            // The static golden index predates the overlay; scan
            // the epoch view directly (tombstones skipped, inserts
            // at their overlay positions) so the fallback answers
            // from exactly this server's staged snapshot.
            hits = baseline::searchEpochFlat(spec_, corpusSeed_,
                                             query.data(), cfg_.topK,
                                             search.filterMask);
        else if (search.nprobe > 0 && goldenIvf_)
            hits = goldenIvf_->search(query.data(), cfg_.topK,
                                      search.nprobe,
                                      search.filterMask);
        else if (search.filterMask != baseline::kFilterAll)
            hits = baseline::searchFilteredFlat(
                *golden_, spec_, corpusSeed_, query.data(),
                cfg_.topK, search.filterMask);
        else
            hits = golden_->search(query.data(), cfg_.topK);
        out.ids.clear();
        for (const auto &h : hits)
            out.ids.push_back(static_cast<uint32_t>(h.id));
        out.run.hits = std::move(hits);
    }
    // Xeon cost scales with the bytes actually scanned: a probe-
    // restricted query reads only its lists' share of the shard.
    double bytes =
        static_cast<double>(spec_.embeddingBytes());
    if (search.nprobe > 0 && clustering_) {
        uint64_t probed = 0;
        auto probes = clustering_->selectProbes(query.data(),
                                                search.nprobe);
        for (uint32_t list : probes)
            probed += clustering_->listSize(list);
        bytes = bytes *
            (static_cast<double>(probed) /
             static_cast<double>(
                 std::max<size_t>(1, clustering_->numChunks())));
    }
    out.retrievalSeconds = xeon_.ennsRetrievalMs(bytes) * 1e-3;
    out.ok = true;
    out.fromDevice = false;
}

} // namespace cisram::kernels
