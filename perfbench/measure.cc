#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "baseline/ivf.hh"
#include "bench.hh"
#include "common/metrics.hh"
#include "load/openloop.hh"

namespace perfbench {

using namespace cisram;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/** Nearest rank of quantile `q` in a sample of `n`, 1-based. */
size_t
rankOf(double q, size_t n)
{
    return static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

} // namespace

size_t
Dist::beyond() const
{
    return n - std::min(n, rankOf(tailQ, n));
}

Dist
Dist::of(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Dist d;
    d.n = v.size();
    for (double q : {0.999, 0.99, 0.98, 0.95, 0.9, 0.8})
        if (d.n >= rankOf(q, d.n) + 10) {
            d.tailQ = q;
            break;
        }
    if (d.n == 0)
        return d;
    auto at = [&](double q) {
        return v[std::clamp<size_t>(rankOf(q, d.n), 1, d.n) - 1];
    };
    d.p50 = at(0.5);
    d.tail = at(d.tailQ);
    return d;
}

namespace {

constexpr size_t kKeepNone = std::numeric_limits<size_t>::max();

/**
 * Set up and serve every trace of every rate point once. Only point
 * `keep`'s Router outlives its serving (verification and the layer
 * metrics read it); the others are freed as soon as they drain.
 */
Pass
runPass(const Workload &w, size_t keep, Tracer *tr, bool flight_on = false)
{
    Pass p;
    const WorkloadConfig &c = w.config();
    for (size_t j = 0; j < c.ratesQps.size() * c.tracesPerRate; ++j) {
        Point pt;
        Clock::time_point t0 = Clock::now();
        {
            Scope s(tr, "load.trace_gen");
            pt.traffic = w.traffic(j / c.tracesPerRate, j % c.tracesPerRate);
        }
        {
            Scope s(tr, "fleet.build");
            pt.router = w.buildRouter(c.fleet.functional, flight_on);
        }
        pt.setupSeconds = since(t0);
        pt.served = w.serve(*pt.router, pt.traffic, tr);
        p.setupSeconds += pt.setupSeconds;
        p.serveSeconds += pt.served.hostSeconds;
        p.offered += pt.served.offered;
        pt.outstanding = pt.router->ledgerOutstanding();
        if (j != keep)
            pt.router.reset();
        p.points.push_back(std::move(pt));
    }
    return p;
}

} // namespace

Measured
measure(const Workload &w, double seconds, Tracer *tr)
{
    const WorkloadConfig &c = w.config();
    Measured m;
    for (size_t i = 0; i < c.ratesQps.size(); ++i)
        if (c.ratesQps[i] == c.nominalQps)
            m.nominal = i * c.tracesPerRate;

    Clock::time_point t0 = Clock::now();
    m.passes.push_back(runPass(w, m.nominal, nullptr));
    if (tr) {
        // The same work again with spans, the metrics registry armed
        // and the servers' flight recorders on; verify() checks that
        // no simulated result moved. The registry is off again for
        // everything after it, as it was for the first pass.
        cisram::metrics::setEnabled(true);
        m.traced = runPass(w, m.nominal, tr, true);
        cisram::metrics::setEnabled(false);
    } else {
        while (since(t0) < seconds && m.passes.size() < c.maxPasses)
            m.passes.push_back(runPass(w, kKeepNone, nullptr));
    }

    for (const Pass &p : m.passes)
        m.setups.push_back(p.setupSeconds);
    // The traced run reports no set-up time.
    while (!tr && m.setups.size() < c.setups) {
        double secs = 0;
        for (size_t j = 0; j < c.ratesQps.size() * c.tracesPerRate; ++j) {
            Clock::time_point t1 = Clock::now();
            Traffic t = w.traffic(j / c.tracesPerRate, j % c.tracesPerRate);
            std::unique_ptr<fleet::Router> r =
                w.buildRouter(c.fleet.functional);
            secs += since(t1);
        }
        m.setups.push_back(secs);
    }
    return m;
}

void
Checks::expect(bool ok, const std::string &what, uint64_t queries)
{
    made.emplace_back(what, ok);
    if (!ok)
        failed += std::max<uint64_t>(queries, 1);
}

Dist
latencyDist(const std::vector<const Point *> &pts)
{
    std::vector<double> v;
    for (const Point *pt : pts)
        for (const fleet::FleetOutcome &o : pt->served.outcomes)
            if (o.ok)
                v.push_back((o.admitSeconds -
                             pt->traffic.trace.arrivals[o.id - 1].seconds +
                             o.latencySeconds) *
                            1e3);
    return Dist::of(std::move(v));
}

namespace {

/** Queries whose simulated latency differs between two runs. */
uint64_t
latencyMismatches(const Served &a, const Served &b)
{
    auto by_id = [](const Served &s) {
        std::map<uint64_t, double> m;
        for (const fleet::FleetOutcome &o : s.outcomes)
            if (o.ok)
                m[o.id] = o.latencySeconds;
        return m;
    };
    std::map<uint64_t, double> la = by_id(a), lb = by_id(b);
    uint64_t bad = 0;
    for (const auto &[id, lat] : la) {
        auto it = lb.find(id);
        bad += it == lb.end() || it->second != lat;
    }
    for (const auto &[id, lat] : lb)
        bad += !la.count(id);
    return bad;
}

/** Exactly-once delivery and admission at the trace due time. */
void
checkDelivery(const Point &pt, Checks &chk)
{
    const Served &s = pt.served;
    std::string tag = "rate " + std::to_string(pt.traffic.rateQps);
    std::set<uint64_t> seen;
    uint64_t dups = 0, undelivered = 0;
    double lag = 0;
    for (const fleet::FleetOutcome &o : s.outcomes) {
        dups += !seen.insert(o.id).second;
        undelivered += !o.ok;
        lag = std::max(lag, o.admitSeconds -
                                pt.traffic.trace.arrivals[o.id - 1].seconds);
    }
    undelivered += s.offered - std::min<uint64_t>(s.offered, seen.size());
    chk.expect(dups == 0 && s.outcomes.size() == s.admitted &&
                   pt.outstanding == 0,
               tag + ": exactly-once delivery", dups);
    chk.expect(undelivered == 0, tag + ": every offered query delivered",
               undelivered);
    chk.expect(lag == 0, tag + ": admitted at its trace due time");
}

/**
 * No two shard servers on one simulated core: the router places a
 * device's servers round-robin over its cores, so this holds iff no
 * device hosts more replicas than it has cores.
 */
void
checkPlacement(const fleet::Router &r, unsigned cores, Checks &chk)
{
    std::vector<unsigned> per_device(r.devices(), 0);
    for (const std::vector<unsigned> &replicas : r.placement())
        for (unsigned d : replicas)
            ++per_device[d];
    chk.expect(*std::max_element(per_device.begin(), per_device.end()) <=
                   cores,
               "one shard server per core");
}

/** Merge per-shard spec-local hits into the global top-k. */
std::vector<baseline::Hit>
mergeShards(const std::vector<std::vector<baseline::Hit>> &parts,
            const ShardFlats &sf, size_t k)
{
    std::vector<baseline::Hit> all;
    for (size_t s = 0; s < parts.size(); ++s)
        for (baseline::Hit h : parts[s]) {
            h.id += sf.specs[s].firstChunk;
            all.push_back(h);
        }
    baseline::hitFinalize(all);
    if (all.size() > k)
        all.resize(k);
    return all;
}

bool
sameHits(const std::vector<baseline::Hit> &a,
         const std::vector<baseline::Hit> &b)
{
    return a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin(),
                   [](const baseline::Hit &x, const baseline::Hit &y) {
                       return x.id == y.id && x.score == y.score;
                   });
}

/**
 * Device answers vs the IVF golden (the same per-shard clustering the
 * servers probe, the same filter), plus recall against the exhaustive
 * filtered scan on every recallStride-th query.
 */
AnswerStats
checkIvfAnswers(const Workload &w, const Point &pt, Checks &chk,
                Tracer *tr)
{
    const WorkloadConfig &c = w.config();
    std::unique_ptr<ShardFlats> sf;
    {
        Scope s(tr, "baseline.flat_build");
        sf = std::make_unique<ShardFlats>(w);
    }
    std::vector<std::unique_ptr<baseline::IndexIvfI16>> ivf;
    for (unsigned s = 0; s < c.fleet.shards; ++s) {
        unsigned d = pt.router->placement()[s][0];
        ivf.push_back(std::make_unique<baseline::IndexIvfI16>(
            *sf->flats[s], *pt.router->server(d, s)->clustering(),
            sf->specs[s], w.corpusSeed()));
    }

    AnswerStats st;
    uint64_t mismatches = 0;
    double recall_sum = 0, scan_sum = 0;
    for (const fleet::FleetOutcome &o : pt.served.outcomes) {
        if (!o.ok)
            continue;
        Query q = w.query(pt.traffic.trace.arrivals[o.id - 1]);
        std::vector<std::vector<baseline::Hit>> parts;
        size_t probed = 0;
        {
            Scope s(tr, "baseline.ivf_search");
            for (unsigned sh = 0; sh < c.fleet.shards; ++sh)
                parts.push_back(ivf[sh]->search(q.vec.data(), c.fleet.topK,
                                                q.search.nprobe,
                                                q.search.filterMask));
        }
        for (unsigned sh = 0; sh < c.fleet.shards; ++sh) {
            const baseline::IvfClustering &cl = ivf[sh]->clustering();
            for (uint32_t l : cl.selectProbes(q.vec.data(), q.search.nprobe))
                probed += cl.listSize(l);
        }
        mismatches += !sameHits(mergeShards(parts, *sf, c.fleet.topK),
                                o.hits);
        scan_sum += static_cast<double>(probed) /
            static_cast<double>(c.corpus.numChunks);
        ++st.goldenQueries;

        if (o.id % c.recallStride != 0)
            continue;
        std::vector<std::vector<baseline::Hit>> exact;
        {
            Scope s(tr, "baseline.flat_search");
            for (unsigned sh = 0; sh < c.fleet.shards; ++sh)
                exact.push_back(baseline::searchFilteredFlat(
                    *sf->flats[sh], sf->specs[sh], w.corpusSeed(),
                    q.vec.data(), c.fleet.topK, q.search.filterMask));
        }
        std::vector<baseline::Hit> truth =
            mergeShards(exact, *sf, c.fleet.topK);
        size_t inter = 0;
        for (const baseline::Hit &h : o.hits)
            for (const baseline::Hit &t : truth)
                inter += h.id == t.id;
        recall_sum += truth.empty()
            ? 1.0
            : static_cast<double>(inter) / static_cast<double>(truth.size());
        ++st.recallQueries;
    }
    chk.expect(mismatches == 0, "answers == IVF/filtered golden", mismatches);
    if (st.recallQueries)
        st.recall = recall_sum / static_cast<double>(st.recallQueries);
    if (st.goldenQueries)
        st.scanFraction = scan_sum / static_cast<double>(st.goldenQueries);
    return st;
}

/** Exhaustive answers vs the golden of their admission epoch. */
AnswerStats
checkEpochAnswers(const Workload &w, const Point &pt, Checks &chk,
                  Tracer *tr)
{
    const WorkloadConfig &c = w.config();
    AnswerStats st;
    Clock::time_point t0 = Clock::now();
    uint64_t mism;
    {
        Scope s(tr, "baseline.epoch_flat");
        mism = load::countGoldenMismatches(
            pt.served.outcomes, pt.traffic.trace, c.corpus, w.corpusSeed(),
            pt.traffic.plan.get(), c.fleet.topK);
    }
    st.goldenQueries = pt.served.outcomes.size();
    st.epochFlatMs = since(t0) * 1e3 /
        static_cast<double>(std::max<uint64_t>(1, st.goldenQueries));
    chk.expect(mism == 0, "answers == admission-epoch golden", mism);
    // An exhaustive answer that bit-compares with the exhaustive
    // golden has recall 1; a mismatching one is counted as 0, so this
    // is a lower bound that is exact when every answer matches.
    st.recall = static_cast<double>(st.goldenQueries - mism) /
        static_cast<double>(std::max<uint64_t>(1, st.goldenQueries));
    st.recallQueries = st.goldenQueries;
    st.scanFraction = 1.0;
    return st;
}

} // namespace

ShardFlats::ShardFlats(const Workload &w)
{
    for (unsigned s = 0; s < w.config().fleet.shards; ++s) {
        specs.push_back(w.shardSpec(s));
        const baseline::RagCorpusSpec &sp = specs.back();
        auto flat = std::make_unique<baseline::IndexFlatI16>(sp.dim);
        std::vector<int16_t> emb = baseline::genEmbeddings(
            sp, sp.firstChunk, sp.numChunks, w.corpusSeed());
        flat->add(emb.data(), sp.numChunks);
        flats.push_back(std::move(flat));
    }
}

namespace {

Verified
verifyOnce(const Workload &w, const Measured &m, Checks &chk, Tracer *tr)
{
    const WorkloadConfig &c = w.config();
    const Pass &p0 = m.passes[0];
    const Point &nominal = p0.points[m.nominal];
    Verified v;

    std::vector<const Pass *> reruns;
    for (size_t k = 1; k < m.passes.size(); ++k)
        reruns.push_back(&m.passes[k]);
    if (tr)
        reruns.push_back(&m.traced);
    uint64_t moved = 0;
    for (const Pass *p : reruns)
        for (size_t i = 0; i < p0.points.size(); ++i)
            moved += latencyMismatches(p0.points[i].served,
                                       p->points[i].served);
    chk.expect(moved == 0, "simulated latency identical across passes",
               moved);

    for (const Point &pt : p0.points)
        checkDelivery(pt, chk);
    checkPlacement(*nominal.router, c.fleet.coresPerDevice, chk);

    if (c.fleet.functional && c.nprobe > 0)
        v.answers = checkIvfAnswers(w, nominal, chk, tr);
    else if (c.fleet.functional)
        v.answers = checkEpochAnswers(w, nominal, chk, tr);

    // TimingOnly replay of the nominal trace: with functional lanes
    // off the simulated latencies must not move. On a TimingOnly
    // workload this is an independent re-run (determinism).
    {
        Scope s(tr, "bench.replay_timing");
        std::unique_ptr<fleet::Router> r = w.buildRouter(false);
        v.replay = w.serve(*r, nominal.traffic, nullptr);
    }
    uint64_t bad = latencyMismatches(nominal.served, v.replay);
    chk.expect(bad == 0, "TimingOnly replay latency identity", bad);
    return v;
}

} // namespace

Verified
verify(const Workload &w, const Measured &m, Checks &chk, Tracer *tr)
{
    Verified v;
    std::vector<double> secs;
    for (unsigned r = 0; r < w.config().verifyReps; ++r) {
        Checks again;
        Clock::time_point t0 = Clock::now();
        // Spans only for the first repetition.
        Verified cur = verifyOnce(w, m, r ? again : chk, r ? nullptr : tr);
        secs.push_back(since(t0));
        if (r == 0)
            v = std::move(cur);
        else if (again.made != chk.made)
            chk.expect(false, "checks repeat with the same verdicts");
    }
    v.seconds = median(secs);
    return v;
}

} // namespace perfbench
