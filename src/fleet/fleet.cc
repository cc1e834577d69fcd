#include "fleet/fleet.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"

namespace cisram::fleet {

namespace {

/** Fixed per-message framing overhead (headers, descriptors). */
constexpr uint64_t kMsgHeaderBytes = 64;

/** Scatter message: header + the int16 query vector. */
uint64_t
queryBytes(size_t dim)
{
    return kMsgHeaderBytes + static_cast<uint64_t>(dim) * 2;
}

/** Gather message: header + top-k (id, score) pairs. */
uint64_t
resultBytes(size_t topk)
{
    return kMsgHeaderBytes + static_cast<uint64_t>(topk) * 8;
}

std::string
devLabel(unsigned device)
{
    return std::to_string(device);
}

} // namespace

Status
validateFaultPlanForFleet(const fault::FaultPlan &plan,
                          unsigned devices)
{
    for (unsigned k = 0;
         k < static_cast<unsigned>(fault::Kind::kCount); ++k) {
        const fault::Kind kind = static_cast<fault::Kind>(k);
        const fault::Clause &c = plan.clause(kind);
        if (!c.enabled || c.device < 0)
            continue;
        if (static_cast<unsigned>(c.device) >= devices) {
            return Status::invalidArgument(detail::concat(
                "fault spec clause '", fault::kindName(kind),
                "': device=", c.device, " out of range for a ",
                devices, "-device fleet"));
        }
    }
    return Status::okStatus();
}

uint64_t
Router::subQueryId(unsigned device, unsigned shard,
                   uint64_t query_id)
{
    cisram_assert(device < 0xffffu && shard < 0xffffu &&
                      query_id < (1ull << 32),
                  "subQueryId: field out of range");
    return (static_cast<uint64_t>(device) + 1) << 48 |
        (static_cast<uint64_t>(shard) + 1) << 32 | query_id;
}

Router::Router(const baseline::RagCorpusSpec &corpus,
               uint64_t corpus_seed, FleetConfig cfg)
    : corpus_(corpus), corpusSeed_(corpus_seed),
      cfg_(std::move(cfg)),
      shards_(cfg_.shards ? cfg_.shards : cfg_.devices * 2),
      placement_(placeShards(shards_, cfg_.devices, cfg_.replicas,
                             cfg_.placement)),
      fabric_(cfg_.devices, cfg_.fabric),
      flight_(0, cfg_.flight)
{
    cisram_assert(cfg_.devices > 0, "fleet needs devices");
    cisram_assert(cfg_.coresPerDevice > 0 &&
                      cfg_.coresPerDevice <= 4,
                  "coresPerDevice must be 1..4");
    cisram_assert(corpus_.numChunks >= shards_,
                  "fleet: fewer corpus chunks than shards");
    cisram_assert(corpus_.firstChunk == 0,
                  "fleet: the router shards a whole corpus");

    // The Fabric ctor armed the env fault plan; a clause scoped to
    // a device this fleet does not have is a configuration error,
    // not a no-op.
    if (const fault::FaultPlan *fp = fault::plan()) {
        Status st = validateFaultPlanForFleet(*fp, cfg_.devices);
        cisram_assert(st.ok(), "fleet: ", st.message());
    }

    routerBreakers_.reserve(cfg_.devices);
    for (unsigned d = 0; d < cfg_.devices; ++d)
        routerBreakers_.emplace_back(cfg_.server.breakerThreshold,
                                     cfg_.server.breakerCooldown);

    apu::ApuSpec spec = apu::defaultSpec();
    spec.numCores = cfg_.coresPerDevice;

    goldens_.resize(shards_);
    fleet_.resize(cfg_.devices);
    for (unsigned d = 0; d < cfg_.devices; ++d) {
        FleetDevice &fd = fleet_[d];
        fd.dev = std::make_unique<apu::ApuDevice>(spec);
        if (!cfg_.functional)
            for (unsigned c = 0; c < spec.numCores; ++c)
                fd.dev->core(c).setMode(apu::ExecMode::TimingOnly);

        for (unsigned s = 0; s < shards_; ++s) {
            const std::vector<unsigned> &prio = placement_[s];
            if (std::find(prio.begin(), prio.end(), d) ==
                prio.end())
                continue;

            ShardServer ss;
            ss.shard = s;
            ss.range = shardChunkRange(corpus_.numChunks, shards_,
                                       s);
            ss.spec = corpus_;
            ss.spec.corpusBytes = corpus_.corpusBytes *
                (static_cast<double>(ss.range.numChunks) /
                 static_cast<double>(corpus_.numChunks));
            ss.spec.numChunks = ss.range.numChunks;
            ss.spec.firstChunk = ss.range.firstChunk;

            // Replicas of one shard share its golden: it is a pure
            // function of the shard's chunk range.
            if (cfg_.functional && !goldens_[s]) {
                goldens_[s] = std::make_unique<baseline::IndexFlatI16>(
                    corpus_.dim);
                std::vector<int16_t> emb = baseline::genEmbeddings(
                    ss.spec, ss.range.firstChunk,
                    ss.range.numChunks, corpusSeed_);
                Status st =
                    goldens_[s]->add(emb.data(), ss.range.numChunks);
                cisram_assert(st.ok(), "fleet: ", st.message());
            }

            kernels::ServerConfig scfg = cfg_.server;
            scfg.topK = cfg_.topK;
            scfg.deviceIndex = d;
            // The router's failover/evacuation story needs the
            // ladder: a killed device must quarantine, not crash.
            scfg.health.enabled = true;
            unsigned core = static_cast<unsigned>(
                                fd.servers.size()) %
                cfg_.coresPerDevice;

            ss.server = std::make_unique<kernels::DeviceServer>(
                *fd.dev, ss.spec, core, goldens_[s].get(),
                corpusSeed_, scfg);
            fd.servers.push_back(std::move(ss));
        }
    }
}

bool
Router::deviceAlive(unsigned device) const
{
    return !fleet_[device].killed && !fabric_.wedged(device);
}

Router::ShardServer *
Router::replicaOn(unsigned device, unsigned shard)
{
    for (ShardServer &ss : fleet_[device].servers)
        if (ss.shard == shard)
            return &ss;
    return nullptr;
}

kernels::DeviceServer *
Router::server(unsigned device, unsigned shard)
{
    cisram_assert(device < devices(), "fleet: device index OOB");
    ShardServer *ss = replicaOn(device, shard);
    return ss ? ss->server.get() : nullptr;
}

Status
Router::dispatchShard(QueryState &qs, unsigned shard,
                      double admit_seconds, double not_before)
{
    SubState &sub = qs.subs[shard];
    const std::vector<unsigned> &prio = placement_[shard];
    auto &reg = metrics::Registry::get();
    std::string last_err = "no replica admitted it";

    auto count_failover = [&](unsigned device) {
        ++sub.failovers;
        ++failovers_;
        reg.counter("fleet.failover", {{"device", devLabel(device)}})
            .inc();
    };

    while (sub.nextReplica < prio.size()) {
        unsigned d = prio[sub.nextReplica++];

        // Locally-known dead ends cost nothing: a severed/wedged
        // link or an Open router breaker skips without a send.
        if (!deviceAlive(d)) {
            count_failover(d);
            last_err = detail::concat("device ", d, " is down");
            continue;
        }
        if (!routerBreakers_[d].allowRequest()) {
            count_failover(d);
            last_err = detail::concat("device ", d,
                                      " breaker open");
            continue;
        }

        double before = fabric_.stats(d).busySeconds;
        StatusOr<double> tr =
            fabric_.transfer(d, queryBytes(corpus_.dim));
        double charged = fabric_.stats(d).busySeconds - before;
        if (!tr.ok()) {
            routerBreakers_[d].recordFailure();
            sub.extraHostSeconds += charged;
            count_failover(d);
            last_err = tr.status().message();
            continue;
        }

        ShardServer *ss = replicaOn(d, shard);
        cisram_assert(ss != nullptr, "fleet: placement says shard ",
                      shard, " lives on device ", d,
                      " but no server is staged there");
        // Snapshot consistency: a sub-query only ever lands on a
        // replica serving exactly the epoch it admitted under. The
        // fleet-wide drain barrier in applyMutation makes this an
        // invariant; a violation is a router bug, not load.
        cisram_assert(ss->server->corpusEpoch() == qs.epoch,
                      "fleet: query #", qs.id, " admitted at epoch ",
                      qs.epoch, " but shard ", shard, " on device ",
                      d, " serves epoch ",
                      ss->server->corpusEpoch());

        double arrival =
            std::max(admit_seconds, not_before) + *tr;
        ss->server->advanceClock(arrival);
        Status est = ss->server->enqueueAt(
            subQueryId(d, shard, qs.id), qs.query, arrival,
            qs.search, qs.cls);
        if (!est.ok()) {
            // The send was spent but the replica shed it; hedge to
            // the next replica.
            routerBreakers_[d].recordFailure();
            sub.extraHostSeconds += charged;
            count_failover(d);
            last_err = est.message();
            continue;
        }

        routerBreakers_[d].recordSuccess();
        reg.counter("fleet.scatter.subqueries",
                    {{"tenant", qs.cls.tenant},
                     {"slo_class",
                      std::to_string(qs.cls.sloClass)}})
            .inc();
        sub.device = d;
        sub.arrivalSeconds = arrival;
        sub.sendSeconds = *tr;
        return Status::okStatus();
    }

    return Status::resourceExhausted(detail::concat(
        "fleet: shard ", shard, " unroutable for query #", qs.id,
        ": ", last_err));
}

Status
Router::admit(uint64_t id, std::vector<int16_t> query,
              double arrival_seconds,
              kernels::RagSearchParams search,
              kernels::AdmitClass cls)
{
    cisram_assert(query.size() == corpus_.dim,
                  "fleet: query dim mismatch");
    cisram_assert(queryIndex_.find(id) == queryIndex_.end(),
                  "fleet: duplicate admission of query #", id);
    cisram_assert(search.nprobe == 0 || cfg_.server.ivf.enabled,
                  "fleet: query #", id, " requests nprobe=",
                  search.nprobe,
                  " but the fleet's servers have no IVF clustering");

    // Per-tenant quota, checked before the ledger ever sees the
    // query: a quota shed is never journaled, so exactly-once
    // accounting stays clean (only admitted queries owe outcomes).
    for (const FleetConfig::TenantQuota &q : cfg_.quotas) {
        if (q.tenant != cls.tenant || q.maxInFlight == 0)
            continue;
        uint64_t inflight = tenantInFlight(cls.tenant);
        if (inflight >= q.maxInFlight) {
            metrics::Registry::get()
                .counter("recovery.shed",
                         {{"site", "router"},
                          {"reason", "quota"},
                          {"tenant", cls.tenant},
                          {"slo_class",
                           std::to_string(cls.sloClass)}})
                .inc();
            flight_.recordShed(id, arrival_seconds, "quota");
            return Status::resourceExhausted(detail::concat(
                "fleet: tenant '", cls.tenant, "' is at its ",
                q.maxInFlight, "-query in-flight quota, query #",
                id, " shed"));
        }
    }

    ledger_.admit(id, kernels::QueryPayload{query, search, cls},
                  arrival_seconds);
    flight_.recordAdmit(id, arrival_seconds);
    ++tenantInFlight_[cls.tenant];

    queryIndex_[id] = queries_.size();
    queries_.push_back({});
    QueryState &qs = queries_.back();
    qs.id = id;
    qs.query = std::move(query);
    qs.search = search;
    qs.cls = std::move(cls);
    qs.epoch = epoch_;
    qs.admitSeconds = arrival_seconds;
    qs.subs.resize(shards_);
    qs.remaining = shards_;

    Status first_err = Status::okStatus();
    for (unsigned s = 0; s < shards_; ++s) {
        Status st = dispatchShard(qs, s, arrival_seconds);
        if (!st.ok()) {
            // Loud failure: the query is completed (exactly once)
            // as not-ok rather than silently dropped.
            qs.failed = true;
            qs.subs[s].done = true;
            --qs.remaining;
            flight_.recordShed(id, arrival_seconds, "unroutable");
            if (first_err.ok())
                first_err = st;
        }
    }
    return first_err;
}

void
Router::collect(unsigned device,
                std::vector<kernels::ServeOutcome> outs)
{
    auto &reg = metrics::Registry::get();
    for (kernels::ServeOutcome &out : outs) {
        uint64_t qid = out.id & 0xffffffffull;
        unsigned shard =
            static_cast<unsigned>((out.id >> 32) & 0xffffu) - 1;
        unsigned dev =
            static_cast<unsigned>(out.id >> 48) - 1;
        cisram_assert(dev == device,
                      "fleet: outcome #", out.id,
                      " surfaced on the wrong device");
        auto it = queryIndex_.find(qid);
        cisram_assert(it != queryIndex_.end(),
                      "fleet: outcome for unknown query #", qid);
        QueryState &qs = queries_[it->second];
        SubState &sub = qs.subs[shard];
        cisram_assert(!sub.done, "fleet: duplicate outcome for ",
                      "query #", qid, " shard ", shard);

        double served = out.servedSeconds();

        // Gather the result back across the link. A failed return
        // transfer (severed mid-gather) loses the result — the
        // query fails over like any other in-flight loss.
        double before = fabric_.stats(device).busySeconds;
        StatusOr<double> rt =
            fabric_.transfer(device, resultBytes(cfg_.topK));
        double charged =
            fabric_.stats(device).busySeconds - before;
        if (!rt.ok()) {
            sub.extraHostSeconds += charged;
            ++sub.failovers;
            ++failovers_;
            reg.counter("fleet.failover",
                        {{"device", devLabel(device)}})
                .inc();
            Status st = dispatchShard(qs, shard, qs.admitSeconds,
                                      sub.arrivalSeconds + served);
            if (!st.ok()) {
                qs.failed = true;
                sub.done = true;
                --qs.remaining;
            }
            continue;
        }

        sub.done = true;
        --qs.remaining;
        sub.fromDevice = out.fromDevice;
        sub.attempts = std::max(sub.attempts, out.attempts);
        sub.returnSeconds = *rt;
        sub.pathSeconds = sub.sendSeconds + served + *rt;

        reg.histogram("fleet.device_served_seconds",
                      {{"device", devLabel(device)}})
            .observe(served);

        if (cfg_.functional) {
            ShardServer *ss = replicaOn(device, shard);
            sub.hits = std::move(out.run.hits);
            // Globalize through the epoch view: a base chunk maps
            // to firstChunk + local (exactly the old offset), an
            // inserted chunk to its minted global id.
            for (baseline::Hit &h : sub.hits)
                h.id = ss->spec.globalChunk(h.id);
        }
    }
}

std::vector<FleetOutcome>
Router::reapFinished()
{
    std::vector<FleetOutcome> done;
    for (QueryState &qs : queries_)
        if (!qs.finished && qs.remaining == 0)
            done.push_back(finishQuery(qs));
    return done;
}

FleetOutcome
Router::finishQuery(QueryState &qs)
{
    FleetOutcome out;
    out.id = qs.id;
    out.admitSeconds = qs.admitSeconds;
    out.cls = qs.cls;
    out.epoch = qs.epoch;

    double gather = 0;
    double extra = 0;
    unsigned attempts = 0;
    std::vector<baseline::Hit> candidates;
    for (const SubState &sub : qs.subs) {
        gather = std::max(gather, sub.pathSeconds);
        extra += sub.extraHostSeconds;
        attempts = std::max(attempts, sub.attempts);
        out.failovers += sub.failovers;
        out.allFromDevice = out.allFromDevice && sub.fromDevice;
        out.fabricSeconds += sub.sendSeconds + sub.returnSeconds +
            sub.extraHostSeconds;
        candidates.insert(candidates.end(), sub.hits.begin(),
                          sub.hits.end());
    }

    // Exact k-way merge: per-shard exact top-ks re-ranked in the
    // global index's own order (score desc, global id asc), so the
    // fleet answer is bit-identical to the unsharded one.
    std::sort(candidates.begin(), candidates.end(),
              [](const baseline::Hit &a, const baseline::Hit &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.id < b.id;
              });
    if (candidates.size() > cfg_.topK)
        candidates.resize(cfg_.topK);
    out.hits = std::move(candidates);
    out.ids.reserve(out.hits.size());
    for (const baseline::Hit &h : out.hits)
        out.ids.push_back(static_cast<uint32_t>(h.id));

    double merge = static_cast<double>(shards_) *
        static_cast<double>(cfg_.topK) *
        cfg_.mergeSecondsPerCandidate;
    double host = extra + merge;
    double latency = (0.0 + gather) + host;

    out.gatherSeconds = gather;
    out.hostSeconds = host;
    out.latencySeconds = latency;
    out.ok = !qs.failed;

    // Flight ledger: one round, reconciling bit-exactly as
    // (wait + gather) + (failover + merge) — the same float-add
    // order QueryFlight::reconciledSeconds() re-performs.
    flight_.beginRound(qs.id, qs.admitSeconds);
    for (unsigned s = 0; s < shards_; ++s) {
        const SubState &sub = qs.subs[s];
        flight_.span(qs.id, obs::Stage::ShardPath, sub.failovers,
                     qs.admitSeconds, sub.pathSeconds,
                     detail::concat("shard", s, "@dev",
                                    sub.device));
    }
    flight_.span(qs.id, obs::Stage::ShardGather, 0,
                 qs.admitSeconds, gather);
    if (extra > 0)
        flight_.span(qs.id, obs::Stage::Failover, 0,
                     qs.admitSeconds, extra);
    flight_.span(qs.id, obs::Stage::TopkMerge, 0,
                 qs.admitSeconds + gather, merge);
    obs::FlightCompletion fc;
    fc.endSeconds = qs.admitSeconds + latency;
    fc.fromDevice = out.allFromDevice;
    fc.attempts = attempts;
    fc.batchSize = shards_;
    fc.servedSeconds = latency;
    flight_.complete(qs.id, fc);

    auto &reg = metrics::Registry::get();
    reg.histogram("fleet.served_seconds").observe(latency);
    // Per-class rollup alongside the unlabeled fleet series (which
    // older baselines gate on): the SLO story needs latency broken
    // out by who bought which class.
    reg.histogram("fleet.class_served_seconds",
                  {{"tenant", qs.cls.tenant},
                   {"slo_class", std::to_string(qs.cls.sloClass)}})
        .observe(latency);
    // Merge work is modeled as shards x topK candidate inserts —
    // count exactly what the merge charge above is billed for.
    reg.counter("fleet.merge.candidates",
                {{"tenant", qs.cls.tenant},
                 {"slo_class", std::to_string(qs.cls.sloClass)}})
        .inc(static_cast<double>(shards_) *
             static_cast<double>(cfg_.topK));

    ledger_.complete(qs.id);
    auto tf = tenantInFlight_.find(qs.cls.tenant);
    if (tf != tenantInFlight_.end() && tf->second > 0)
        --tf->second;
    qs.finished = true;
    qs.query.clear();
    qs.query.shrink_to_fit();
    return out;
}

std::vector<FleetOutcome>
Router::pump()
{
    for (unsigned d = 0; d < devices(); ++d) {
        if (fleet_[d].killed)
            continue;
        for (ShardServer &ss : fleet_[d].servers)
            collect(d, ss.server->pump());
    }
    return reapFinished();
}

std::vector<FleetOutcome>
Router::pumpUntil(double now)
{
    for (unsigned d = 0; d < devices(); ++d) {
        if (fleet_[d].killed)
            continue;
        for (ShardServer &ss : fleet_[d].servers)
            collect(d, ss.server->pumpUntil(now));
    }
    return reapFinished();
}

uint64_t
Router::tenantInFlight(const std::string &tenant) const
{
    auto it = tenantInFlight_.find(tenant);
    return it == tenantInFlight_.end() ? 0 : it->second;
}

std::vector<FleetOutcome>
Router::applyMutation(uint64_t new_epoch,
                      const std::vector<ShardEpochUpdate> &updates)
{
    cisram_assert(new_epoch == epoch_ + 1,
                  "fleet: corpus epochs advance one at a time (at ",
                  epoch_, ", asked for ", new_epoch, ")");

    // Epoch barrier: a query's answer bit-compares against the
    // snapshot it was admitted under, so every in-flight query
    // finishes against the old corpus before any shard flips.
    std::vector<FleetOutcome> served = drain();

    for (const ShardEpochUpdate &u : updates) {
        cisram_assert(u.shard < shards_,
                      "fleet: mutation names shard ", u.shard,
                      " but the fleet has ", shards_);
        cisram_assert(u.view && u.view->epoch == new_epoch,
                      "fleet: shard ", u.shard,
                      " update carries the wrong epoch view");
        for (unsigned d : placement_[u.shard]) {
            // Killed devices were severed and evacuated; they can
            // never serve again, so they stay at their stale epoch
            // forever. Wedged-but-alive replicas still take the
            // update: the drain above emptied them, and resetLink
            // may bring them back into rotation later.
            if (fleet_[d].killed)
                continue;
            ShardServer *ss = replicaOn(d, u.shard);
            cisram_assert(ss, "fleet: placement lists device ", d,
                          " for shard ", u.shard,
                          " but no replica lives there");

            baseline::RagCorpusSpec nspec = ss->spec;
            nspec.numChunks = u.numChunks;
            nspec.corpusBytes = ss->spec.corpusBytes *
                (static_cast<double>(u.numChunks) /
                 static_cast<double>(ss->spec.numChunks));
            nspec.epochView = u.view.get();

            // Flip the server before retiring the old view: its
            // internal drain/re-stage must still be able to read
            // the epoch the server currently serves.
            std::vector<kernels::ServeOutcome> late =
                ss->server->applyMutation(nspec, new_epoch,
                                          u.deltaBytes);
            cisram_assert(late.empty(),
                          "fleet: shard ", u.shard, " on device ",
                          d, " served past the fleet drain");
            ss->spec = nspec;
            ss->view = u.view;
        }
    }
    epoch_ = new_epoch;
    return served;
}

std::vector<FleetOutcome>
Router::drain()
{
    size_t outstanding = 0;
    for (const QueryState &qs : queries_)
        if (!qs.finished)
            ++outstanding;

    // A pass may re-dispatch work onto a device drained earlier in
    // the same pass (failover), so iterate to a fixed point. Each
    // pass completes at least one query or moves at least one
    // sub-query one replica down its finite priority list, so
    // passes are bounded by queries x replicas.
    for (size_t pass = 0;; ++pass) {
        bool all_done = true;
        for (const QueryState &qs : queries_)
            if (qs.remaining != 0) {
                all_done = false;
                break;
            }
        if (all_done)
            break;
        cisram_assert(pass <= outstanding * (cfg_.replicas + 1u),
                      "fleet: drain did not converge");
        for (unsigned d = 0; d < devices(); ++d) {
            if (fleet_[d].killed) {
                evacuateDevice(d);
                continue;
            }
            for (ShardServer &ss : fleet_[d].servers)
                collect(d, ss.server->drain());
        }
    }
    return reapFinished();
}

void
Router::evacuateDevice(unsigned device)
{
    double kill_time = deviceBusySeconds(device);
    for (ShardServer &ss : fleet_[device].servers) {
        auto handed = ss.server->evacuate();
        for (auto &e : handed) {
            uint64_t qid = e.id & 0xffffffffull;
            auto it = queryIndex_.find(qid);
            cisram_assert(it != queryIndex_.end(),
                          "fleet: evacuated unknown query #", qid);
            QueryState &qs = queries_[it->second];
            SubState &sub = qs.subs[ss.shard];
            if (sub.done)
                continue;
            ++evacuated_;
            // The hand-off is itself a failover: the send to the
            // dead device bought nothing, so its charge moves to
            // the failover (host) account.
            ++sub.failovers;
            ++failovers_;
            metrics::Registry::get()
                .counter("fleet.failover",
                         {{"device", devLabel(device)}})
                .inc();
            sub.extraHostSeconds += sub.sendSeconds;
            sub.sendSeconds = 0;
            // Replay on the next replica with the *original*
            // admission time; the hand-off cannot arrive before
            // the kill was observed.
            Status st = dispatchShard(qs, ss.shard, e.admitSeconds,
                                      kill_time);
            if (!st.ok()) {
                cisram_warn(
                    "fleet: query #", qid, " shard ", ss.shard,
                     " lost its last replica: ", st.message());
                qs.failed = true;
                sub.done = true;
                --qs.remaining;
            }
        }
    }
}

void
Router::killDevice(unsigned device)
{
    cisram_assert(device < devices(), "fleet: device index OOB");
    FleetDevice &fd = fleet_[device];
    if (fd.killed)
        return;
    fd.killed = true;
    fabric_.sever(device);
    for (ShardServer &ss : fd.servers)
        ss.server->forceQuarantine();
    metrics::Registry::get()
        .counter("fleet.devices_killed",
                 {{"device", devLabel(device)}})
        .inc();
    evacuateDevice(device);
}

double
Router::deviceBusySeconds(unsigned device) const
{
    cisram_assert(device < devices(), "fleet: device index OOB");
    // Shard servers sharing a core serialize on it: their busy
    // clocks add. The device is as busy as its busiest core.
    const std::vector<ShardServer> &servers =
        fleet_[device].servers;
    std::vector<double> coreBusy(cfg_.coresPerDevice, 0.0);
    for (size_t i = 0; i < servers.size(); ++i)
        coreBusy[i % cfg_.coresPerDevice] +=
            servers[i].server->busySeconds();
    double t = 0;
    for (double b : coreBusy)
        t = std::max(t, b);
    return t;
}

double
Router::makespanSeconds() const
{
    double t = 0;
    for (unsigned d = 0; d < devices(); ++d)
        t = std::max(t, deviceBusySeconds(d));
    return t;
}

double
Router::fabricBusySeconds() const
{
    double t = 0;
    for (unsigned d = 0; d < devices(); ++d)
        t += fabric_.stats(d).busySeconds;
    return t;
}

metrics::Histogram
Router::mergedDeviceLatency() const
{
    auto &reg = metrics::Registry::get();
    metrics::Histogram merged;
    for (unsigned d = 0; d < devices(); ++d)
        merged.merge(
            reg.histogram("fleet.device_served_seconds",
                          {{"device", devLabel(d)}}));
    return merged;
}

} // namespace cisram::fleet
