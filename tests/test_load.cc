/**
 * @file
 * Open-loop load subsystem: deterministic arrival traces (shapes,
 * tenants, bit-identical regeneration), mutation plans (epoch
 * overlays that partition exactly across shards, tombstones that
 * never compact), the per-epoch flat golden (searchEpochFlat; its
 * blocked form against a scalar reference, and the mismatch count
 * against perturbed answers), a
 * single server's epoch-tagged incremental re-stage, and the full
 * open-loop drive: live mutation plus a mid-stream device kill with
 * exactly-once delivery and every answer bit-compared against its
 * admission epoch's snapshot.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "common/rng.hh"
#include "fleet/fleet.hh"
#include "kernels/serving.hh"
#include "load/arrivals.hh"
#include "load/mutation.hh"
#include "load/openloop.hh"
#include "obs/slo.hh"

using namespace cisram;
using namespace cisram::load;

// ---- arrival traces -----------------------------------------------------

TEST(Arrivals, DeterministicAndOpenLoopShaped)
{
    TrafficConfig cfg;
    cfg.ratePerSecond = 200;
    cfg.durationSeconds = 2.0;
    cfg.seed = 7;

    ArrivalTrace a = genArrivalTrace(cfg);
    ArrivalTrace b = genArrivalTrace(cfg);
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
    for (size_t i = 0; i < a.arrivals.size(); ++i) {
        EXPECT_EQ(a.arrivals[i].seconds, b.arrivals[i].seconds);
        EXPECT_EQ(a.arrivals[i].querySeed,
                  b.arrivals[i].querySeed);
    }

    // Poisson at λ=200 over 2s: ~400 arrivals; the Bernoulli grid
    // keeps the count within a loose band deterministically.
    EXPECT_GT(a.arrivals.size(), 300u);
    EXPECT_LT(a.arrivals.size(), 500u);

    // Timestamps ascend strictly (one slot admits at most one
    // arrival) and ids are dense and 1-based.
    for (size_t i = 0; i < a.arrivals.size(); ++i) {
        EXPECT_EQ(a.arrivals[i].id, i + 1);
        if (i)
            EXPECT_GT(a.arrivals[i].seconds,
                      a.arrivals[i - 1].seconds);
    }

    // A different seed is a different trace.
    cfg.seed = 8;
    ArrivalTrace c = genArrivalTrace(cfg);
    EXPECT_NE(a.arrivals.size(), 0u);
    bool differs = c.arrivals.size() != a.arrivals.size();
    for (size_t i = 0;
         !differs && i < std::min(a.arrivals.size(),
                                  c.arrivals.size());
         ++i)
        differs = a.arrivals[i].seconds != c.arrivals[i].seconds;
    EXPECT_TRUE(differs);
}

TEST(Arrivals, BurstThenSilenceConcentratesArrivals)
{
    // burstFactor · burstDuty = 1: the off-burst rate clamps to
    // zero, so every arrival must land inside a burst window.
    TrafficConfig cfg;
    cfg.shape = ArrivalShape::Burst;
    cfg.ratePerSecond = 400;
    cfg.durationSeconds = 1.0;
    cfg.burstFactor = 4.0;
    cfg.burstDuty = 0.25;
    cfg.burstPeriodSeconds = 0.25;
    cfg.seed = 11;

    ArrivalTrace t = genArrivalTrace(cfg);
    ASSERT_GT(t.arrivals.size(), 100u);
    EXPECT_EQ(t.peakRate, 1600.0);
    for (const Arrival &a : t.arrivals) {
        double phase =
            std::fmod(a.seconds, cfg.burstPeriodSeconds);
        EXPECT_LT(phase, cfg.burstDuty * cfg.burstPeriodSeconds)
            << "arrival at t=" << a.seconds
            << " landed in a silent window";
    }
}

TEST(Arrivals, DiurnalRateRampsToMidRunPeak)
{
    TrafficConfig cfg;
    cfg.shape = ArrivalShape::Diurnal;
    cfg.ratePerSecond = 100;
    cfg.durationSeconds = 4.0;
    cfg.diurnalAmplitude = 0.5;

    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 0.0), 50.0);
    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 2.0), 150.0);
    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 4.0), 50.0);
    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 1.0), 100.0);

    // More arrivals in the middle half than in the outer half.
    ArrivalTrace t = genArrivalTrace(cfg);
    size_t mid = 0, outer = 0;
    for (const Arrival &a : t.arrivals)
        (a.seconds >= 1.0 && a.seconds < 3.0 ? mid : outer)++;
    EXPECT_GT(mid, outer);
}

TEST(Arrivals, TenantsDrawByWeightAndCarryTheirClass)
{
    TrafficConfig cfg;
    cfg.ratePerSecond = 500;
    cfg.durationSeconds = 2.0;
    cfg.seed = 13;
    cfg.tenants = {TenantSpec{"alpha", 3.0, 0, 64},
                   TenantSpec{"beta", 1.0, 1, 8}};

    ArrivalTrace t = genArrivalTrace(cfg);
    size_t alpha = 0, beta = 0;
    for (const Arrival &a : t.arrivals) {
        ASSERT_LT(a.tenant, 2u);
        const TenantSpec &ts = t.cfg.tenants[a.tenant];
        EXPECT_EQ(a.sloClass, ts.sloClass);
        EXPECT_LT(a.user, ts.users);
        (a.tenant == 0 ? alpha : beta)++;
    }
    ASSERT_GT(alpha, 0u);
    ASSERT_GT(beta, 0u);
    // 3:1 weights: alpha should dominate clearly (loose band — the
    // draw is seeded, so this is a deterministic assertion).
    EXPECT_GT(alpha, 2 * beta);
}

// ---- mutation plans -----------------------------------------------------

namespace {

baseline::RagCorpusSpec
tinyCorpus()
{
    return baseline::RagCorpusSpec{"load-unit", 0, 1536, 96};
}

} // namespace

TEST(MutationPlanTest, ShardViewsPartitionTheWholeCorpusView)
{
    const unsigned kShards = 4;
    MutationConfig mc;
    mc.batches = 3;
    mc.insertsPerBatch = 96;
    mc.deletesPerBatch = 48;
    mc.seed = 5;
    baseline::RagCorpusSpec base = tinyCorpus();
    MutationPlan plan(base, kShards, mc);
    ASSERT_EQ(plan.epochs(), 3u);

    for (uint64_t e = 1; e <= plan.epochs(); ++e) {
        const baseline::RagCorpusSpec &spec = plan.specAt(e);
        ASSERT_NE(spec.epochView, nullptr);
        const baseline::CorpusEpochView &whole = *spec.epochView;
        EXPECT_EQ(whole.epoch, e);
        EXPECT_EQ(spec.numChunks,
                  whole.baseChunks + whole.inserted.size());
        EXPECT_EQ(whole.inserted.size(), e * mc.insertsPerBatch);
        EXPECT_EQ(whole.deleted.size(), e * mc.deletesPerBatch);
        EXPECT_EQ(plan.liveChunksAt(e),
                  base.numChunks + e * mc.insertsPerBatch -
                      e * mc.deletesPerBatch);
        EXPECT_TRUE(std::is_sorted(whole.inserted.begin(),
                                   whole.inserted.end()));

        auto updates = plan.shardUpdates(e);
        ASSERT_EQ(updates.size(), kShards);
        std::multiset<uint64_t> shard_ins, shard_del;
        uint64_t delta = 0;
        for (const auto &u : updates) {
            ASSERT_NE(u.view, nullptr);
            EXPECT_EQ(u.view->epoch, e);
            EXPECT_EQ(u.numChunks, u.view->baseChunks +
                                       u.view->inserted.size());
            EXPECT_TRUE(std::is_sorted(u.view->inserted.begin(),
                                       u.view->inserted.end()));
            for (uint64_t g : u.view->inserted) {
                shard_ins.insert(g);
                EXPECT_EQ(g % kShards, u.shard)
                    << "insert " << g << " on the wrong shard";
            }
            for (uint64_t g : u.view->deleted)
                shard_del.insert(g);
            delta += u.deltaBytes;
        }
        // Exact partition: every insert/delete on exactly one
        // shard, none invented, none lost.
        EXPECT_EQ(shard_ins.size(), whole.inserted.size());
        for (uint64_t g : whole.inserted)
            EXPECT_EQ(shard_ins.count(g), 1u);
        EXPECT_EQ(shard_del.size(), whole.deleted.size());
        for (uint64_t g : whole.deleted)
            EXPECT_EQ(shard_del.count(g), 1u);
        // Re-stage bytes = this batch's inserts only (incremental,
        // not a full restage).
        EXPECT_EQ(delta, mc.insertsPerBatch * base.dim *
                             sizeof(int16_t));
    }

    // Tombstones never compact: positions present at epoch e stay
    // at the same local position in every later epoch.
    const auto &s1 = plan.specAt(1);
    const auto &s3 = plan.specAt(3);
    for (uint64_t local = 0; local < s1.numChunks; ++local)
        EXPECT_EQ(s1.globalChunk(local), s3.globalChunk(local));
}

TEST(MutationPlanTest, DeterministicInConfigAlone)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    MutationConfig mc;
    mc.seed = 21;
    MutationPlan a(base, 3, mc);
    MutationPlan b(base, 3, mc);
    for (uint64_t e = 1; e <= a.epochs(); ++e) {
        EXPECT_EQ(a.batches()[e - 1].inserts,
                  b.batches()[e - 1].inserts);
        EXPECT_EQ(a.batches()[e - 1].deletes,
                  b.batches()[e - 1].deletes);
    }
}

// ---- the per-epoch flat golden ------------------------------------------

TEST(EpochGolden, MatchesTheStaticIndexAtEpochZero)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 99;
    baseline::IndexFlatI16 index(base.dim);
    auto emb =
        baseline::genEmbeddings(base, 0, base.numChunks, seed);
    index.add(emb.data(), base.numChunks);

    for (int q = 0; q < 4; ++q) {
        auto query = baseline::genQuery(base.dim, 700 + q);
        auto want = index.search(query.data(), 5);
        auto got = baseline::searchEpochFlat(base, seed,
                                             query.data(), 5);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id);
            EXPECT_EQ(got[i].score, want[i].score);
        }
    }
}

TEST(EpochGolden, TombstonesNeverSurfaceAndInsertsAreLive)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 99;
    MutationConfig mc;
    mc.batches = 2;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 17;
    MutationPlan plan(base, 2, mc);

    for (uint64_t e = 1; e <= plan.epochs(); ++e) {
        const baseline::RagCorpusSpec &spec = plan.specAt(e);
        const auto &view = *spec.epochView;
        auto query = baseline::genQuery(base.dim, 31);
        // k = every position: the exact live set must come back.
        auto hits = baseline::searchEpochFlat(
            spec, seed, query.data(), spec.numChunks);
        EXPECT_EQ(hits.size(), plan.liveChunksAt(e));
        std::unordered_set<uint64_t> got;
        for (const auto &h : hits) {
            uint64_t g = spec.globalChunk(h.id);
            EXPECT_EQ(view.deleted.count(g), 0u)
                << "tombstoned chunk " << g << " surfaced";
            got.insert(g);
        }
        for (uint64_t g : view.inserted)
            if (!view.deleted.count(g))
                EXPECT_EQ(got.count(g), 1u)
                    << "live insert " << g << " missing";
    }
}

namespace {

/** One live view position as the scalar reference scores it. */
struct RefRow
{
    int64_t score;
    size_t local;
    uint16_t label;
};

/**
 * Test-only scalar reference for the epoch golden: every live
 * position of `spec`, scored element by element through
 * embeddingValueFor in int64 — no kernel, no row blocks.
 */
std::vector<RefRow>
scalarScores(const baseline::RagCorpusSpec &spec, uint64_t seed,
             const int16_t *query)
{
    std::vector<RefRow> rows;
    for (size_t local = 0; local < spec.numChunks; ++local) {
        uint64_t g = spec.globalChunk(local);
        if (spec.epochView && spec.epochView->deleted.count(g))
            continue;
        int64_t s = 0;
        for (size_t d = 0; d < spec.dim; ++d)
            s += static_cast<int64_t>(query[d]) *
                baseline::embeddingValueFor(spec, g, d, seed);
        rows.push_back({s, local, baseline::chunkLabel(g, seed)});
    }
    return rows;
}

/** Top-k of `rows` under `mask`: score desc, then local id asc. */
std::vector<baseline::Hit>
scalarTopK(std::vector<RefRow> rows, size_t k, uint16_t mask)
{
    std::erase_if(rows, [&](const RefRow &r) {
        return mask != baseline::kFilterAll && !((mask >> r.label) & 1);
    });
    std::sort(rows.begin(), rows.end(),
              [](const RefRow &a, const RefRow &b) {
                  return a.score != b.score ? a.score > b.score
                                            : a.local < b.local;
              });
    std::vector<baseline::Hit> hits;
    for (size_t i = 0; i < std::min(k, rows.size()); ++i)
        hits.push_back({static_cast<float>(rows[i].score),
                        rows[i].local});
    return hits;
}

/**
 * Blocked golden vs the scalar reference on `spec`: every filter
 * mask (each of the 256 label subsets, then kFilterAll), one block
 * of `nq` queries, k drawn from small values and past `live`.
 */
void
expectGoldenMatchesReference(const baseline::RagCorpusSpec &spec,
                             uint64_t seed, size_t live, Rng &rng)
{
    size_t nq = 1 + rng.nextBelow(9);
    std::vector<int16_t> queries;
    std::vector<std::vector<RefRow>> ref;
    for (size_t q = 0; q < nq; ++q) {
        auto v = baseline::genQuery(spec.dim, rng.next());
        ref.push_back(scalarScores(spec, seed, v.data()));
        queries.insert(queries.end(), v.begin(), v.end());
    }
    for (uint32_t m = 0; m <= 0x100; ++m) {
        uint16_t mask = m == 0x100 ? baseline::kFilterAll
                                   : static_cast<uint16_t>(m);
        size_t k = rng.nextBelow(4) == 0 ? live + 7
                                         : 1 + rng.nextBelow(12);
        auto got = baseline::searchEpochFlatBatch(
            spec, seed, queries.data(), nq, k, mask);
        ASSERT_EQ(got.size(), nq);
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(got[q], scalarTopK(ref[q], k, mask))
                << spec.label << " mask " << mask << " k " << k
                << " query " << q << " of " << nq;
    }
    // The one-query entry point is the same path.
    auto one = baseline::searchEpochFlat(spec, seed, queries.data(), 5);
    EXPECT_EQ(one, scalarTopK(ref[0], 5, baseline::kFilterAll));
}

} // namespace

TEST(EpochGolden, BlockedGoldenMatchesScalarReference)
{
    Rng rng(2027);
    const baseline::RagCorpusSpec corpora[] = {
        {"prop-iid", 0, 200, 24},
        {"prop-clustered", 0, 180, 32, 0, 3},
        // dim 2: every score lies in [-98, 98], so ties crowd every
        // k boundary.
        {"prop-ties", 0, 220, 2},
    };
    for (const baseline::RagCorpusSpec &base : corpora) {
        MutationConfig mc;
        mc.batches = 1 + static_cast<unsigned>(rng.nextBelow(3));
        mc.insertsPerBatch = rng.nextBelow(40);
        mc.deletesPerBatch = rng.nextBelow(30);
        mc.seed = rng.next();
        MutationPlan plan(base, 1 + static_cast<unsigned>(
                                        rng.nextBelow(3)),
                          mc);
        const uint64_t seed = 1000 + rng.nextBelow(1000);
        for (uint64_t e = 0; e <= plan.epochs(); ++e)
            expectGoldenMatchesReference(plan.specAt(e), seed,
                                         plan.liveChunksAt(e), rng);
    }

    // A static slice: spec-local ids, global generation keys.
    expectGoldenMatchesReference({"prop-slice", 0, 150, 16, 500}, 3,
                                 150, rng);

    // An empty view: every base chunk and every insert tombstoned.
    baseline::CorpusEpochView gone;
    gone.epoch = 1;
    gone.baseChunks = 120;
    gone.inserted = {120, 121};
    for (uint64_t g = 0; g < 122; ++g)
        gone.deleted.insert(g);
    baseline::RagCorpusSpec empty{"prop-empty", 0, 122, 24};
    empty.epochView = &gone;
    expectGoldenMatchesReference(empty, 3, 0, rng);
    auto q = baseline::genQuery(empty.dim, 1);
    EXPECT_TRUE(baseline::searchEpochFlat(empty, 3, q.data(), 10)
                    .empty());
}

TEST(EpochGolden, MismatchCountIsExactlyThePerturbedOutcomes)
{
    // Correct answers (from the scalar reference) pinned to every
    // epoch; then one perturbation per outcome, each of which the
    // bit-compare must count exactly once.
    baseline::RagCorpusSpec base{"load-neg", 0, 400, 24};
    const uint64_t seed = 77;
    const size_t topK = 12;
    MutationConfig mc;
    mc.batches = 3;
    mc.insertsPerBatch = 40;
    mc.deletesPerBatch = 60;
    mc.seed = 5;
    MutationPlan plan(base, 2, mc);
    TrafficConfig tc;
    tc.ratePerSecond = 60;
    tc.seed = 9;
    ArrivalTrace trace = genArrivalTrace(tc);
    ASSERT_GE(trace.arrivals.size(), 20u);

    auto answer = [&](uint64_t id, uint64_t epoch) {
        const baseline::RagCorpusSpec &spec = plan.specAt(epoch);
        auto q = baseline::genQuery(base.dim,
                                    trace.arrivals[id - 1].querySeed);
        auto hits = scalarTopK(scalarScores(spec, seed, q.data()), topK,
                               baseline::kFilterAll);
        for (baseline::Hit &h : hits)
            h.id = spec.globalChunk(h.id);
        return hits;
    };
    std::vector<fleet::FleetOutcome> outs;
    for (const Arrival &a : trace.arrivals) {
        fleet::FleetOutcome o;
        o.id = a.id;
        o.ok = true;
        o.epoch = a.id % (plan.epochs() + 1);
        o.hits = answer(o.id, o.epoch);
        outs.push_back(std::move(o));
    }
    auto count = [&] {
        return countGoldenMismatches(outs, trace, base, seed, &plan,
                                     topK);
    };
    ASSERT_EQ(count(), 0u);

    // Undelivered outcomes are not compared, whatever they hold.
    outs[0].ok = false;
    outs[0].hits.clear();
    EXPECT_EQ(count(), 0u);

    uint64_t perturbed = 0;
    size_t next = 1;
    outs[next++].hits[0].id += 1;
    EXPECT_EQ(count(), ++perturbed) << "wrong id";

    outs[next++].hits.back().score += 1.0f;
    EXPECT_EQ(count(), ++perturbed) << "wrong score";

    bool swapped = false;
    for (; next < outs.size() && !swapped; ++next) {
        std::vector<baseline::Hit> &h = outs[next].hits;
        for (size_t i = 0; !swapped && i + 1 < h.size(); ++i)
            if (h[i].score == h[i + 1].score) {
                std::swap(h[i], h[i + 1]);
                swapped = true;
            }
    }
    ASSERT_TRUE(swapped) << "no tie pair to swap";
    EXPECT_EQ(count(), ++perturbed) << "swapped tie pair";

    bool moved = false;
    for (; next < outs.size() && !moved; ++next) {
        fleet::FleetOutcome &o = outs[next];
        uint64_t other = (o.epoch + 1) % (plan.epochs() + 1);
        if (answer(o.id, other) != o.hits) {
            o.epoch = other;
            moved = true;
        }
    }
    ASSERT_TRUE(moved) << "no answer differs across epochs";
    EXPECT_EQ(count(), ++perturbed) << "pinned to the wrong epoch";

    ASSERT_LT(next, outs.size());
    outs[next++].hits.pop_back();
    EXPECT_EQ(count(), ++perturbed) << "dropped hit";
}

// ---- one server's epoch-tagged incremental re-stage ---------------------

TEST(ServerMutation, DeviceAnswersBitCompareAgainstEachEpoch)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 4242;
    baseline::IndexFlatI16 golden(base.dim);
    auto emb =
        baseline::genEmbeddings(base, 0, base.numChunks, seed);
    golden.add(emb.data(), base.numChunks);

    MutationConfig mc;
    mc.batches = 2;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 23;
    MutationPlan plan(base, 1, mc);

    apu::ApuDevice dev;
    kernels::ServerConfig cfg;
    cfg.topK = 5;
    kernels::DeviceServer server(dev, base, 0, &golden, seed, cfg);

    auto serve_and_check = [&](uint64_t epoch, uint64_t first_id) {
        const baseline::RagCorpusSpec &spec =
            epoch == 0 ? base : plan.specAt(epoch);
        for (int q = 0; q < 3; ++q) {
            auto query =
                baseline::genQuery(base.dim, 800 + 10 * epoch + q);
            ASSERT_TRUE(
                server.enqueue(first_id + q, query).ok());
            auto outs = server.drain();
            ASSERT_EQ(outs.size(), 1u);
            EXPECT_TRUE(outs[0].ok);
            auto want = baseline::searchEpochFlat(
                spec, seed, query.data(), cfg.topK);
            ASSERT_EQ(outs[0].run.hits.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(outs[0].run.hits[i].id, want[i].id)
                    << "epoch " << epoch << " query " << q;
                EXPECT_EQ(outs[0].run.hits[i].score,
                          want[i].score)
                    << "epoch " << epoch << " query " << q;
            }
        }
    };

    serve_and_check(0, 1);
    for (uint64_t e = 1; e <= plan.epochs(); ++e) {
        auto updates = plan.shardUpdates(e);
        ASSERT_EQ(updates.size(), 1u);
        auto served = server.applyMutation(plan.specAt(e), e,
                                           updates[0].deltaBytes);
        EXPECT_TRUE(served.empty());
        EXPECT_EQ(server.corpusEpoch(), e);
        serve_and_check(e, 100 * e);
    }
}

TEST(ServerMutation, ResidentStagingMatchesPerBatchRebuild)
{
    // `resident` keeps its shard staged across batches (one staging
    // per epoch or reset); `rebuilt` tears its retriever down before
    // every batch (a reset with nothing outstanding), so it stages
    // the shard afresh each time. Through two mutations, a core
    // reset and a device kill (quarantine, then drain's escalated
    // reset and replay) both give the same hits and CycleStats.
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 4242;
    baseline::IndexFlatI16 golden(base.dim);
    auto emb =
        baseline::genEmbeddings(base, 0, base.numChunks, seed);
    golden.add(emb.data(), base.numChunks);

    MutationConfig mc;
    mc.batches = 2;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 31;
    MutationPlan plan(base, 1, mc);

    kernels::ServerConfig cfg;
    cfg.topK = 5;
    cfg.health.enabled = true;
    apu::ApuDevice dev_r, dev_f;
    kernels::DeviceServer resident(dev_r, base, 0, &golden, seed, cfg);
    kernels::DeviceServer rebuilt(dev_f, base, 0, &golden, seed, cfg);
    const size_t footprint = dev_r.allocator().liveCount();

    uint64_t next_id = 1;
    auto round = [&](uint16_t filter, bool kill) {
        kernels::RagSearchParams search;
        search.filterMask = filter;
        std::vector<std::vector<int16_t>> qs;
        for (uint64_t q = 0; q < 4; ++q)
            qs.push_back(baseline::genQuery(base.dim, 900 + next_id + q));
        for (uint64_t q = 0; q < qs.size(); ++q)
            ASSERT_TRUE(resident.enqueue(next_id + q, qs[q], search).ok());
        if (kill)
            resident.forceQuarantine();
        rebuilt.forceReset();
        for (uint64_t q = 0; q < qs.size(); ++q)
            ASSERT_TRUE(rebuilt.enqueue(next_id + q, qs[q], search).ok());
        auto a = resident.drain();
        auto b = rebuilt.drain();
        ASSERT_EQ(a.size(), qs.size());
        ASSERT_EQ(b.size(), qs.size());
        auto by_id = [](const kernels::ServeOutcome &x,
                        const kernels::ServeOutcome &y) {
            return x.id < y.id;
        };
        std::sort(a.begin(), a.end(), by_id);
        std::sort(b.begin(), b.end(), by_id);
        for (size_t i = 0; i < a.size(); ++i) {
            std::string at = "query " + std::to_string(a[i].id);
            EXPECT_TRUE(a[i].ok && a[i].fromDevice) << at;
            EXPECT_EQ(a[i].id, b[i].id) << at;
            EXPECT_EQ(a[i].ids, b[i].ids) << at;
            ASSERT_EQ(a[i].run.hits.size(), b[i].run.hits.size()) << at;
            for (size_t h = 0; h < a[i].run.hits.size(); ++h) {
                EXPECT_EQ(a[i].run.hits[h].id, b[i].run.hits[h].id) << at;
                EXPECT_EQ(a[i].run.hits[h].score, b[i].run.hits[h].score)
                    << at;
            }
            const auto &x = a[i].run.stages;
            const auto &y = b[i].run.stages;
            EXPECT_EQ(x.loadEmbedding, y.loadEmbedding) << at;
            EXPECT_EQ(x.loadQuery, y.loadQuery) << at;
            EXPECT_EQ(x.calcDistance, y.calcDistance) << at;
            EXPECT_EQ(x.topkAggregation, y.topkAggregation) << at;
            EXPECT_EQ(x.returnTopk, y.returnTopk) << at;
            EXPECT_EQ(x.overlapHidden, y.overlapHidden) << at;
        }
        // The staged shard is the one block held beyond the
        // server's construction footprint.
        EXPECT_EQ(dev_r.allocator().liveCount(), footprint + 1);
        next_id += 100;
    };
    auto mutate = [&](uint64_t e) {
        auto updates = plan.shardUpdates(e);
        ASSERT_EQ(updates.size(), 1u);
        for (kernels::DeviceServer *s : {&resident, &rebuilt})
            EXPECT_TRUE(s->applyMutation(plan.specAt(e), e,
                                         updates[0].deltaBytes)
                            .empty());
    };

    round(baseline::kFilterAll, false);
    round(0x0f, false); // same epoch: served from the staged planes
    mutate(1);
    round(baseline::kFilterAll, false);
    resident.forceReset();
    round(0x33, false);
    mutate(2);
    round(baseline::kFilterAll, true);
    round(baseline::kFilterAll, false);
    EXPECT_EQ(resident.resets(), 2u);
}

// ---- the full open-loop drive -------------------------------------------

TEST(OpenLoopTest, MutationPlusKillKeepsExactlyOnceAndGoldens)
{
    baseline::RagCorpusSpec base{"load-fleet", 0, 2048, 368};
    const uint64_t seed = 4242;

    MutationConfig mc;
    mc.batches = 2;
    mc.startSeconds = 0.3;
    mc.intervalSeconds = 0.3;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 29;
    MutationPlan plan(base, 4, mc);

    fleet::FleetConfig fcfg;
    fcfg.devices = 3;
    fcfg.replicas = 2;
    fcfg.shards = 4;
    fcfg.functional = true;
    fcfg.topK = 5;
    fleet::Router router(base, seed, fcfg);

    TrafficConfig tc;
    tc.ratePerSecond = 24;
    tc.durationSeconds = 1.0;
    tc.seed = 3;
    tc.tenants = {TenantSpec{"alpha", 2.0, 0, 16},
                  TenantSpec{"beta", 1.0, 1, 4}};
    ArrivalTrace trace = genArrivalTrace(tc);
    ASSERT_GT(trace.arrivals.size(), 8u);

    OpenLoopOptions opts;
    opts.plan = &plan;
    opts.killAtSeconds = 0.45;
    opts.killDevice = router.placement()[0][0];
    opts.slo.windowQueries = 8;
    opts.slo.classes = {
        obs::SloClass{sloClassName(0), 0.5, 0.9},
        obs::SloClass{sloClassName(1), 1.0, 0.9}};

    OpenLoopResult res = runOpenLoop(router, trace, base, opts);

    // Open loop: everything offered; nothing here should shed
    // (no quotas, no admission caps in this config).
    EXPECT_EQ(res.offered, trace.arrivals.size());
    EXPECT_EQ(res.admitted, res.offered);
    EXPECT_EQ(res.epochsApplied, 2u);
    EXPECT_EQ(router.corpusEpoch(), 2u);

    // Exactly-once through mutation barriers AND a device kill:
    // one outcome per admitted query, ledger empty.
    EXPECT_EQ(router.ledgerOutstanding(), 0u);
    ASSERT_EQ(res.outcomes.size(), res.admitted);
    std::set<uint64_t> ids;
    for (const auto &o : res.outcomes) {
        EXPECT_TRUE(o.ok) << "query " << o.id;
        ids.insert(o.id);
    }
    EXPECT_EQ(ids.size(), res.outcomes.size());
    EXPECT_EQ(res.delivered, res.outcomes.size());

    // Queries really spanned epochs (the kill device was shard 0's
    // primary, so failovers must have fired too).
    std::set<uint64_t> epochs;
    for (const auto &o : res.outcomes)
        epochs.insert(o.epoch);
    EXPECT_GE(epochs.size(), 2u);
    EXPECT_GT(router.evacuatedQueries() + router.failovers(), 0u);

    // The tentpole claim: every answer bit-compares against its
    // admission epoch's snapshot.
    EXPECT_EQ(countGoldenMismatches(res.outcomes, trace, base,
                                    seed, &plan, fcfg.topK),
              0u);

    // SLO windows tile the epochs: flushAll at each boundary closes
    // one window per class, so both classes report even if silent.
    size_t c0 = 0, c1 = 0;
    for (const auto &w : res.sloWindows)
        (w.cls == sloClassName(0) ? c0 : c1)++;
    EXPECT_GE(c0, 2u);
    EXPECT_GE(c1, 2u);
}
