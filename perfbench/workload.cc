#include "workload.hh"

#include <chrono>
#include <limits>

#include "baseline/ivf.hh"
#include "common/logging.hh"
#include "fleet/placement.hh"

namespace perfbench {

using namespace cisram;

namespace {

/** Shared by every workload: corpus seed, cores per device, top-k. */
constexpr uint64_t kCorpusSeed = 97;
constexpr unsigned kCoresPerDevice = 4;
constexpr size_t kTopK = 10;

const json::Value &
field(const json::Value &obj, const std::string &key)
{
    const json::Value *v = obj.asObject().find(key);
    cisram_assert(v, "workloads.json: missing key '", key, "'");
    return *v;
}

double
num(const json::Value &obj, const std::string &key)
{
    return field(obj, key).asNumber();
}

double
numOr(const json::Value &obj, const std::string &key, double dflt)
{
    const json::Value *v = obj.asObject().find(key);
    return v ? v->asNumber() : dflt;
}

} // namespace

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t x = seed * 0x9e3779b97f4a7c15ull + stream;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return (x ^ (x >> 31)) & 0xffffffffffffull;
}

WorkloadConfig
parseWorkload(const json::Value &doc, const std::string &name)
{
    const json::Value *w =
        field(doc, "workloads").asObject().find(name);
    cisram_assert(w, "unknown workload '", name, "'");

    WorkloadConfig c;
    c.name = name;

    const json::Value &corpus = field(*w, "corpus");
    if (const json::Value *paper = corpus.asObject().find("paper")) {
        for (const baseline::RagCorpusSpec &s : baseline::ragCorpora())
            if (paper->asString() == s.label)
                c.corpus = s;
        cisram_assert(c.corpus.numChunks > 0, "unknown paper corpus '",
                      paper->asString(), "'");
    } else {
        // Synthetic corpus at the paper's bytes-per-chunk ratio.
        const baseline::RagCorpusSpec &ref = baseline::ragCorpora()[0];
        c.corpus.numChunks = static_cast<size_t>(num(corpus, "chunks"));
        c.corpus.corpusBytes = ref.corpusBytes *
            static_cast<double>(c.corpus.numChunks) /
            static_cast<double>(ref.numChunks);
    }
    c.corpus.topics = static_cast<size_t>(numOr(corpus, "topics", 0));

    const json::Value &f = field(*w, "fleet");
    c.fleet.devices = static_cast<unsigned>(num(f, "devices"));
    c.fleet.coresPerDevice = kCoresPerDevice;
    c.fleet.replicas = static_cast<unsigned>(num(f, "replicas"));
    c.fleet.shards = static_cast<unsigned>(num(f, "shards"));
    c.fleet.topK = kTopK;
    c.fleet.functional = field(f, "functional").asBool();
    c.fleet.server.batch.maxLingerSeconds = num(f, "linger_ms") * 1e-3;
    if (const json::Value *ivf = w->asObject().find("ivf")) {
        c.fleet.server.ivf.enabled = true;
        c.fleet.server.ivf.build = baseline::IvfBuildConfig{
            static_cast<size_t>(num(*ivf, "lists")),
            static_cast<size_t>(num(*ivf, "train_sample")),
            static_cast<size_t>(num(*ivf, "iterations"))};
    }

    const json::Value &t = field(*w, "traffic");
    for (const json::Value &r : field(t, "rates_qps").asArray())
        c.ratesQps.push_back(r.asNumber());
    c.nominalQps = num(t, "nominal_qps");
    c.arrivalsPerTrace = static_cast<size_t>(num(t, "arrivals_per_trace"));
    c.tracesPerRate =
        static_cast<unsigned>(numOr(t, "traces_per_rate", 1));
    c.tailLimitMs = num(*w, "tail_limit_ms");

    if (const json::Value *m = w->asObject().find("mutation")) {
        c.mutationBatches = static_cast<unsigned>(num(*m, "batches"));
        c.insertsPerBatch = static_cast<uint64_t>(num(*m, "inserts"));
        c.deletesPerBatch = static_cast<uint64_t>(num(*m, "deletes"));
    }
    c.killAtFraction = numOr(*w, "kill_at_fraction", -1);

    if (const json::Value *q = w->asObject().find("queries")) {
        c.nprobe = static_cast<size_t>(num(*q, "nprobe"));
        c.filterMask = static_cast<uint16_t>(num(*q, "filter_mask"));
        c.filteredShare = num(*q, "filtered_share");
        c.recallStride = static_cast<uint64_t>(num(*q, "recall_stride"));
    }

    const json::Value &p = field(*w, "passes");
    c.maxPasses = static_cast<unsigned>(num(p, "max"));
    c.setups = static_cast<unsigned>(num(p, "setups"));
    c.verifyReps = static_cast<unsigned>(num(p, "verify"));

    bool nominal_listed = false;
    for (double r : c.ratesQps)
        nominal_listed = nominal_listed || r == c.nominalQps;
    cisram_assert(nominal_listed, name, ": nominal_qps not in rates_qps");
    cisram_assert(c.arrivalsPerTrace >= 8 && c.tracesPerRate >= 1 &&
                      c.maxPasses >= 1 && c.verifyReps >= 1,
                  name, ": bad arrival count or pass bounds");
    return c;
}

Workload::Workload(WorkloadConfig cfg, uint64_t seed)
    : cfg_(std::move(cfg)), seed_(seed)
{}

uint64_t
Workload::corpusSeed() const
{
    return kCorpusSeed;
}

Traffic
Workload::traffic(size_t i, unsigned k) const
{
    Traffic t;
    t.rateQps = cfg_.ratesQps[i];
    load::TrafficConfig tc;
    tc.shape = load::ArrivalShape::Poisson;
    tc.ratePerSecond = t.rateQps;
    // The first `arrivalsPerTrace` arrivals of a Poisson process: a
    // fixed amount of work per run, whatever the seed.
    size_t n = cfg_.arrivalsPerTrace;
    tc.durationSeconds = 1.5 * static_cast<double>(n) / t.rateQps;
    tc.seed = deriveSeed(seed_, 100 + i + 1000 * k);
    tc.tenants = {{cfg_.name, 1.0, 0, 64}};
    t.trace = load::genArrivalTrace(tc);
    cisram_assert(t.trace.arrivals.size() >= n, cfg_.name,
                  ": trace too short");
    t.trace.arrivals.resize(n);
    t.trace.cfg.durationSeconds = t.trace.arrivals.back().seconds;
    double span = t.trace.cfg.durationSeconds;

    if (cfg_.mutationBatches > 0) {
        // Epochs evenly spaced inside the trace.
        double step = span / (cfg_.mutationBatches + 1);
        load::MutationConfig mc;
        mc.batches = cfg_.mutationBatches;
        mc.startSeconds = step;
        mc.intervalSeconds = step;
        mc.insertsPerBatch = cfg_.insertsPerBatch;
        mc.deletesPerBatch = cfg_.deletesPerBatch;
        mc.seed = deriveSeed(seed_, 2);
        t.plan = std::make_unique<load::MutationPlan>(
            cfg_.corpus, cfg_.fleet.shards, mc);
    }
    if (cfg_.killAtFraction >= 0)
        t.killAtSeconds = cfg_.killAtFraction * span;
    return t;
}

std::unique_ptr<fleet::Router>
Workload::buildRouter(bool functional, bool flight_on) const
{
    fleet::FleetConfig fc = cfg_.fleet;
    fc.functional = functional;
    if (flight_on)
        fc.server.flight.mode = obs::FlightConfig::Mode::On;
    return std::make_unique<fleet::Router>(cfg_.corpus, kCorpusSeed, fc);
}

Query
Workload::query(const load::Arrival &a) const
{
    Query q;
    if (cfg_.corpus.topics > 0) {
        size_t topic = static_cast<size_t>(a.querySeed % cfg_.corpus.topics);
        q.vec = baseline::genQueryForTopic(cfg_.corpus, topic, a.querySeed,
                                           kCorpusSeed);
    } else {
        q.vec = baseline::genQuery(cfg_.corpus.dim, a.querySeed);
    }
    q.search.nprobe = cfg_.nprobe;
    // A pure function of the arrival's seed: the same share of
    // queries is filtered whatever the trace length.
    double u = static_cast<double>(deriveSeed(a.querySeed, 3) % 1000000) /
        1e6;
    if (u < cfg_.filteredShare)
        q.search.filterMask = cfg_.filterMask;
    return q;
}

baseline::RagCorpusSpec
Workload::shardSpec(unsigned shard) const
{
    fleet::ShardRange r = fleet::shardChunkRange(
        cfg_.corpus.numChunks, cfg_.fleet.shards, shard);
    baseline::RagCorpusSpec s = cfg_.corpus;
    s.corpusBytes = cfg_.corpus.corpusBytes *
        (static_cast<double>(r.numChunks) /
         static_cast<double>(cfg_.corpus.numChunks));
    s.numChunks = r.numChunks;
    s.firstChunk = r.firstChunk;
    return s;
}

Served
Workload::serve(fleet::Router &router, const Traffic &t, Tracer *tr) const
{
    using Clock = std::chrono::steady_clock;
    Served res;
    const unsigned victim = router.placement()[0][0];
    auto keep = [&](std::vector<fleet::FleetOutcome> outs) {
        for (fleet::FleetOutcome &o : outs)
            res.outcomes.push_back(std::move(o));
    };

    constexpr double kNever = std::numeric_limits<double>::infinity();
    const std::vector<load::Arrival> &arrivals = t.trace.arrivals;
    const std::vector<load::MutationBatch> *batches =
        t.plan ? &t.plan->batches() : nullptr;
    size_t ai = 0, mi = 0;
    bool kill_pending = t.killAtSeconds >= 0;

    Clock::time_point start = Clock::now();
    Scope loop(tr, "bench.serve");
    while (ai < arrivals.size() || (batches && mi < batches->size()) ||
           kill_pending) {
        double ta = ai < arrivals.size() ? arrivals[ai].seconds : kNever;
        double tm =
            batches && mi < batches->size() ? (*batches)[mi].atSeconds
                                            : kNever;
        double tk = kill_pending ? t.killAtSeconds : kNever;

        if (tm <= ta && tm <= tk) {
            const load::MutationBatch &b = (*batches)[mi++];
            auto updates = t.plan->shardUpdates(b.epoch);
            Scope s(tr, "fleet.mutate");
            auto outs = router.applyMutation(b.epoch, updates);
            s.completed(outs);
            keep(std::move(outs));
            continue;
        }
        if (tk <= ta) {
            Scope s(tr, "fleet.kill");
            router.killDevice(victim);
            kill_pending = false;
            continue;
        }

        const load::Arrival &a = arrivals[ai++];
        ++res.offered;
        Query q = query(a);
        {
            Scope s(tr, "fleet.admit");
            s.arrival(a.id);
            kernels::AdmitClass cls{t.trace.tenantName(a), a.sloClass};
            Status st = router.admit(a.id, std::move(q.vec), a.seconds,
                                     q.search, cls);
            if (st.ok())
                ++res.admitted;
        }
        Scope s(tr, "fleet.pump");
        auto outs = router.pumpUntil(a.seconds);
        s.completed(outs);
        keep(std::move(outs));
    }
    {
        Scope s(tr, "fleet.drain");
        auto outs = router.drain();
        s.completed(outs);
        keep(std::move(outs));
    }
    res.hostSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return res;
}

} // namespace perfbench
