/**
 * @file
 * Fleet-scale sharded serving: consistent-hash placement
 * (determinism, stability, balance), the deterministic fabric model
 * (charging, device-scoped faults, sticky wedges, sever/reset), and
 * the router's scatter-gather contract — merged top-k bit-identical
 * to the unsharded index across fleet sizes, and a mid-stream device
 * kill at R=2 that fails over with exactly-once delivery and zero
 * drops.
 */

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "common/metrics.hh"
#include "common/status.hh"
#include "fault/fault.hh"
#include "fleet/fabric.hh"
#include "fleet/fleet.hh"
#include "fleet/placement.hh"
#include "kernels/serving.hh"
#include "recovery/health.hh"

using namespace cisram;
using namespace cisram::fleet;

namespace {

/** Disarm on scope exit so no test leaks an armed plan. */
struct PlanGuard
{
    explicit PlanGuard(const std::string &spec)
    {
        auto p = fault::FaultPlan::parse(spec);
        EXPECT_TRUE(p.ok()) << p.status().toString();
        fault::armPlan(*p);
    }
    ~PlanGuard() { fault::disarm(); }
};

/** Primary device of each shard. */
std::vector<unsigned>
primaries(const std::vector<std::vector<unsigned>> &placement)
{
    std::vector<unsigned> out;
    out.reserve(placement.size());
    for (const auto &prio : placement)
        out.push_back(prio[0]);
    return out;
}

} // namespace

// ---- consistent-hash placement ------------------------------------------

TEST(Placement, DeterministicAcrossCallsAndConfigs)
{
    auto a = placeShards(128, 8, 2);
    auto b = placeShards(128, 8, 2);
    EXPECT_EQ(a, b);

    // A pure function of (S, N, R, config): no hidden state leaks
    // between calls with other shapes.
    (void)placeShards(64, 16, 1);
    auto c = placeShards(128, 8, 2);
    EXPECT_EQ(a, c);
}

TEST(Placement, ReplicaListsAreDistinctAndClamped)
{
    auto p = placeShards(32, 8, 2);
    ASSERT_EQ(p.size(), 32u);
    for (const auto &prio : p) {
        ASSERT_EQ(prio.size(), 2u);
        EXPECT_NE(prio[0], prio[1]);
        for (unsigned d : prio)
            EXPECT_LT(d, 8u);
    }

    // R clamps to the device count; R=0 means one replica.
    for (const auto &prio : placeShards(8, 2, 5))
        EXPECT_EQ(prio.size(), 2u);
    for (const auto &prio : placeShards(8, 4, 0))
        EXPECT_EQ(prio.size(), 1u);
}

TEST(Placement, SingleDeviceHoldsEveryShard)
{
    for (const auto &prio : placeShards(128, 1, 2)) {
        ASSERT_EQ(prio.size(), 1u);
        EXPECT_EQ(prio[0], 0u);
    }
}

TEST(Placement, AddingOrRemovingOneDeviceMovesFewShards)
{
    // The consistent-hash stability contract: growing N by one may
    // move only about S/N primaries (each move is a full shard
    // re-stage over PCIe), never trigger a wholesale reshuffle.
    const unsigned S = 128;
    for (unsigned n : {4u, 8u, 15u}) {
        auto before = primaries(placeShards(S, n, 2));
        auto after = primaries(placeShards(S, n + 1, 2));
        unsigned moved = 0;
        for (unsigned s = 0; s < S; ++s)
            if (before[s] != after[s])
                ++moved;
        unsigned ceil_sn = (S + n) / (n + 1);
        EXPECT_LE(moved, ceil_sn + ceil_sn / 2 + 4)
            << "grow " << n << " -> " << n + 1 << " moved "
            << moved;
        EXPECT_GT(moved, 0u) << "the new device must take load";
    }
}

TEST(Placement, PrimaryLoadStaysNearTheMean)
{
    // QPS is set by the busiest device, so the max primary load is
    // the fleet's scaling floor. Bounded-load placement guarantees
    // it: no primary exceeds ceil(S/N) + primaryLoadSlack.
    const unsigned S = 128;
    for (unsigned n : {2u, 4u, 8u, 16u}) {
        auto prim = primaries(placeShards(S, n, 2));
        std::vector<unsigned> load(n, 0);
        for (unsigned d : prim)
            ++load[d];
        unsigned max_load =
            *std::max_element(load.begin(), load.end());
        unsigned min_load =
            *std::min_element(load.begin(), load.end());
        EXPECT_LE(max_load, (S + n - 1) / n + 1)
            << n << " devices: max " << max_load;
        EXPECT_GT(min_load, 0u)
            << n << " devices: an idle device wastes a slot";
    }
}

TEST(Placement, ChunkRangesPartitionTheCorpus)
{
    const size_t total = 1003;
    const unsigned S = 16;
    size_t next = 0;
    for (unsigned s = 0; s < S; ++s) {
        ShardRange r = shardChunkRange(total, S, s);
        EXPECT_EQ(r.firstChunk, next);
        EXPECT_GE(r.numChunks, total / S);
        EXPECT_LE(r.numChunks, total / S + 1);
        next = r.firstChunk + r.numChunks;
    }
    EXPECT_EQ(next, total);

    // Shard geometry is independent of the device count by
    // construction (no device parameter exists to vary).
}

// ---- fabric charging and fault injection --------------------------------

TEST(Fabric, CleanTransferChargesLatencyPlusBandwidth)
{
    FabricConfig cfg;
    Fabric fab(2, cfg);
    auto t = fab.transfer(0, 4096);
    ASSERT_TRUE(t.ok());
    EXPECT_DOUBLE_EQ(*t,
                     cfg.latencySeconds + 4096.0 / cfg.bytesPerSec);
    EXPECT_EQ(fab.stats(0).messages, 1u);
    EXPECT_EQ(fab.stats(0).attempts, 1u);
    EXPECT_EQ(fab.stats(0).drops, 0u);
    EXPECT_DOUBLE_EQ(fab.stats(0).busySeconds, *t);
    EXPECT_EQ(fab.stats(1).messages, 0u);
}

TEST(Fabric, DroppedAttemptChargesTheAckTimeout)
{
    PlanGuard plan("link_drop:nth=1;seed:4");
    FabricConfig cfg;
    Fabric fab(1, cfg);
    auto t = fab.transfer(0, 1024);
    ASSERT_TRUE(t.ok());
    // First attempt times out, the retransmit delivers.
    EXPECT_DOUBLE_EQ(*t, cfg.dropTimeoutSeconds +
                         cfg.latencySeconds +
                         1024.0 / cfg.bytesPerSec);
    EXPECT_EQ(fab.stats(0).drops, 1u);
    EXPECT_EQ(fab.stats(0).attempts, 2u);
    EXPECT_EQ(fab.stats(0).failures, 0u);

    // The nth counter keyed the first *message*: later messages are
    // clean.
    auto u = fab.transfer(0, 1024);
    ASSERT_TRUE(u.ok());
    EXPECT_DOUBLE_EQ(*u, cfg.latencySeconds +
                         1024.0 / cfg.bytesPerSec);
}

TEST(Fabric, DeviceScopedFaultHitsOnlyThatLink)
{
    PlanGuard plan("link_corrupt:device=1,p=1;seed:2");
    FabricConfig cfg;
    Fabric fab(3, cfg);

    EXPECT_TRUE(fab.transfer(0, 64).ok());
    EXPECT_TRUE(fab.transfer(2, 64).ok());

    auto t = fab.transfer(1, 64);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::DataCorruption);
    EXPECT_EQ(fab.stats(1).corrupts, cfg.maxAttempts);
    EXPECT_EQ(fab.stats(1).failures, 1u);
    // Every corrupted attempt crossed the wire in full.
    EXPECT_DOUBLE_EQ(fab.stats(1).busySeconds,
                     cfg.maxAttempts *
                         (cfg.latencySeconds +
                          64.0 / cfg.bytesPerSec));
    // Non-sticky: the link is not wedged, just lossy.
    EXPECT_FALSE(fab.wedged(1));
}

TEST(Fabric, StickyDropWedgesUntilResetLink)
{
    PlanGuard plan("link_drop:nth=1,sticky=1;seed:6");
    FabricConfig cfg;
    Fabric fab(1, cfg);

    auto t = fab.transfer(0, 128);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::Unavailable);
    EXPECT_TRUE(fab.wedged(0));
    // Every attempt after the latch dropped without a fresh draw.
    EXPECT_EQ(fab.stats(0).drops, cfg.maxAttempts);

    // Wedged: the next message fails too.
    EXPECT_FALSE(fab.transfer(0, 128).ok());

    // Link retraining (a device reset) clears the latch; the nth
    // draw was consumed long ago, so traffic flows again.
    fab.resetLink(0);
    EXPECT_FALSE(fab.wedged(0));
    EXPECT_TRUE(fab.transfer(0, 128).ok());
}

TEST(Fabric, SeveredLinkIsUnavailableUntilReset)
{
    Fabric fab(2);
    fab.sever(1);
    EXPECT_TRUE(fab.wedged(1));
    auto t = fab.transfer(1, 64);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::Unavailable);
    EXPECT_NE(t.status().message().find("severed"),
              std::string::npos);
    EXPECT_TRUE(fab.transfer(0, 64).ok());

    fab.resetLink(1);
    EXPECT_TRUE(fab.transfer(1, 64).ok());
}

// ---- fleet-size validation of device-scoped plans -----------------------

TEST(FleetFaultValidation, RejectsClausesBeyondTheFleet)
{
    auto p =
        fault::FaultPlan::parse("link_drop:device=5,p=1;seed:1");
    ASSERT_TRUE(p.ok());
    Status st = validateFaultPlanForFleet(*p, 4);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("link_drop"), std::string::npos);
    EXPECT_NE(st.message().find("device=5"), std::string::npos);

    EXPECT_TRUE(validateFaultPlanForFleet(*p, 6).ok());

    // Unscoped clauses pass for any fleet size.
    auto q = fault::FaultPlan::parse("pcie_corrupt:p=0.1");
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(validateFaultPlanForFleet(*q, 1).ok());
}

// ---- the router: scatter-gather correctness -----------------------------

namespace {

/** Small functional corpus shared by the router tests. */
struct FleetFixture
{
    baseline::RagCorpusSpec corpus{"fleet-unit", 0, 2048, 368};
    uint64_t seed = 4242;
    baseline::IndexFlatI16 global{368};

    FleetFixture()
    {
        auto emb = baseline::genEmbeddings(corpus, 0,
                                           corpus.numChunks, seed);
        global.add(emb.data(), corpus.numChunks);
    }

    std::vector<int16_t>
    query(int q) const
    {
        return baseline::genQuery(corpus.dim, 900 + q);
    }

    FleetConfig
    config(unsigned devices, unsigned replicas) const
    {
        FleetConfig cfg;
        cfg.devices = devices;
        cfg.replicas = replicas;
        cfg.shards = 8;
        cfg.functional = true;
        cfg.topK = 5;
        return cfg;
    }

    std::vector<uint32_t>
    golden(int q) const
    {
        auto hits = global.search(query(q).data(), 5);
        std::vector<uint32_t> ids;
        for (const auto &h : hits)
            ids.push_back(static_cast<uint32_t>(h.id));
        return ids;
    }
};

} // namespace

TEST(Router, MergedTopKMatchesTheUnshardedIndex)
{
    FleetFixture fx;
    Router router(fx.corpus, fx.seed, fx.config(4, 2));
    EXPECT_EQ(router.shards(), 8u);
    EXPECT_EQ(router.devices(), 4u);

    const int kQueries = 8;
    for (int q = 0; q < kQueries; ++q)
        ASSERT_TRUE(
            router.admit(static_cast<uint64_t>(q + 1), fx.query(q))
                .ok());

    auto outs = router.drain();
    ASSERT_EQ(outs.size(), static_cast<size_t>(kQueries));
    EXPECT_EQ(router.ledgerOutstanding(), 0u);

    std::sort(outs.begin(), outs.end(),
              [](const FleetOutcome &a, const FleetOutcome &b) {
                  return a.id < b.id;
              });
    for (int q = 0; q < kQueries; ++q) {
        const FleetOutcome &out = outs[q];
        EXPECT_TRUE(out.ok);
        EXPECT_EQ(out.failovers, 0u);
        EXPECT_EQ(out.ids, fx.golden(q)) << "query " << q;
        // Latency re-adds from its parts bit-exactly.
        EXPECT_EQ(out.latencySeconds,
                  (0.0 + out.gatherSeconds) + out.hostSeconds);
        EXPECT_GT(out.gatherSeconds, 0.0);
        EXPECT_GT(out.fabricSeconds, 0.0);
    }
}

TEST(Router, AnswersAreBitIdenticalAcrossFleetSizes)
{
    // Shard geometry depends only on (chunks, S), never on N — so
    // the same 8 shards merged from 1, 2, or 4 devices answer
    // identically, and all match the global index.
    FleetFixture fx;
    const int kQueries = 4;
    std::vector<std::vector<uint32_t>> byFleet;
    for (unsigned n : {1u, 2u, 4u}) {
        Router router(fx.corpus, fx.seed, fx.config(n, 1));
        for (int q = 0; q < kQueries; ++q)
            ASSERT_TRUE(router
                            .admit(static_cast<uint64_t>(q + 1),
                                   fx.query(q))
                            .ok());
        auto outs = router.drain();
        ASSERT_EQ(outs.size(), static_cast<size_t>(kQueries));
        std::sort(outs.begin(), outs.end(),
                  [](const FleetOutcome &a, const FleetOutcome &b) {
                      return a.id < b.id;
                  });
        std::vector<uint32_t> flat;
        for (const auto &o : outs)
            flat.insert(flat.end(), o.ids.begin(), o.ids.end());
        byFleet.push_back(std::move(flat));
    }
    EXPECT_EQ(byFleet[0], byFleet[1]);
    EXPECT_EQ(byFleet[0], byFleet[2]);
    for (int q = 0; q < kQueries; ++q) {
        auto want = fx.golden(q);
        std::vector<uint32_t> got(byFleet[0].begin() + q * 5,
                                  byFleet[0].begin() + q * 5 + 5);
        EXPECT_EQ(got, want) << "query " << q;
    }
}

// ---- the router: failover -----------------------------------------------

TEST(Router, KillDeviceFailsOverWithExactlyOnceDelivery)
{
    FleetFixture fx;
    const int kWave = 8;

    // Clean reference run: same fleet shape, no kill.
    std::vector<std::vector<uint32_t>> clean;
    {
        Router router(fx.corpus, fx.seed, fx.config(4, 2));
        for (int q = 0; q < kWave; ++q)
            ASSERT_TRUE(router
                            .admit(static_cast<uint64_t>(q + 1),
                                   fx.query(q))
                            .ok());
        auto outs = router.pump();
        double t = router.makespanSeconds();
        for (int q = 0; q < kWave; ++q)
            ASSERT_TRUE(router
                            .admit(static_cast<uint64_t>(100 + q),
                                   fx.query(20 + q), t)
                            .ok());
        auto rest = router.drain();
        outs.insert(outs.end(), rest.begin(), rest.end());
        std::sort(outs.begin(), outs.end(),
                  [](const FleetOutcome &a, const FleetOutcome &b) {
                      return a.id < b.id;
                  });
        for (const auto &o : outs)
            clean.push_back(o.ids);
        ASSERT_EQ(clean.size(), 2u * kWave);
    }

    // Chaos run: admit a second wave, then kill the primary of
    // shard 0 while that wave is in flight.
    Router router(fx.corpus, fx.seed, fx.config(4, 2));
    for (int q = 0; q < kWave; ++q)
        ASSERT_TRUE(
            router.admit(static_cast<uint64_t>(q + 1), fx.query(q))
                .ok());
    auto outs = router.pump();
    double t = router.makespanSeconds();
    for (int q = 0; q < kWave; ++q)
        ASSERT_TRUE(router
                        .admit(static_cast<uint64_t>(100 + q),
                               fx.query(20 + q), t)
                        .ok());

    unsigned victim = router.placement()[0][0];
    router.killDevice(victim);
    EXPECT_GT(router.evacuatedQueries(), 0u);
    EXPECT_GT(router.failovers(), 0u);

    auto rest = router.drain();
    outs.insert(outs.end(), rest.begin(), rest.end());
    ASSERT_EQ(outs.size(), 2u * static_cast<size_t>(kWave));

    // Exactly once: the fleet ledger is empty, every outcome is ok,
    // and every answer is bit-identical to the clean run.
    EXPECT_EQ(router.ledgerOutstanding(), 0u);
    EXPECT_EQ(router.ledgerAdmitted(), 2u * kWave);
    std::sort(outs.begin(), outs.end(),
              [](const FleetOutcome &a, const FleetOutcome &b) {
                  return a.id < b.id;
              });
    std::set<uint64_t> ids;
    for (size_t i = 0; i < outs.size(); ++i) {
        EXPECT_TRUE(outs[i].ok) << "query #" << outs[i].id;
        EXPECT_TRUE(ids.insert(outs[i].id).second)
            << "duplicate outcome #" << outs[i].id;
        EXPECT_EQ(outs[i].ids, clean[i])
            << "query #" << outs[i].id;
    }

    // The dead device's journals handed their pending work off
    // rather than dropping it.
    size_t handed = 0;
    for (unsigned s = 0; s < router.shards(); ++s)
        if (auto *srv = router.server(victim, s))
            handed += srv->journalOutstanding();
    EXPECT_EQ(handed, 0u) << "evacuation must empty the journals";
}

TEST(Router, StickyLinkDropRoutesAroundTheDeadDevice)
{
    // Device 0's link wedges on its first message; every shard that
    // prefers it must hedge to its replica, and all answers stay
    // exact.
    PlanGuard plan("link_drop:device=0,nth=1,sticky=1;seed:8");
    FleetFixture fx;
    Router router(fx.corpus, fx.seed, fx.config(2, 2));

    for (int q = 0; q < 4; ++q)
        ASSERT_TRUE(
            router.admit(static_cast<uint64_t>(q + 1), fx.query(q))
                .ok());
    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 4u);
    EXPECT_GT(router.failovers(), 0u);
    std::sort(outs.begin(), outs.end(),
              [](const FleetOutcome &a, const FleetOutcome &b) {
                  return a.id < b.id;
              });
    for (int q = 0; q < 4; ++q) {
        EXPECT_TRUE(outs[q].ok);
        EXPECT_EQ(outs[q].ids, fx.golden(q)) << "query " << q;
    }
    EXPECT_TRUE(router.fabric().wedged(0));
}

// ---- namespaced journal ids ---------------------------------------------

TEST(Router, SubQueryIdsAreNamespacedPerDeviceAndShard)
{
    // The same query on two devices (a failover replay) or two
    // shards must journal under different ids, and the id can never
    // collide with a raw query id (the device field is biased +1).
    std::set<uint64_t> seen;
    for (unsigned d = 0; d < 4; ++d)
        for (unsigned s = 0; s < 8; ++s)
            for (uint64_t q : {1ull, 2ull, 0xffffffffull})
                EXPECT_TRUE(
                    seen.insert(Router::subQueryId(d, s, q)).second)
                    << "collision at d=" << d << " s=" << s;
    EXPECT_NE(Router::subQueryId(0, 0, 7), 7u);
    EXPECT_EQ(Router::subQueryId(1, 2, 7) & 0xffffffffull, 7u);
}

TEST(RouterDeathTest, OversizedSubQueryIdFieldsPanic)
{
    EXPECT_DEATH(Router::subQueryId(0, 0, 1ull << 32),
                 "out of range");
}

// ---- merged per-device histograms ---------------------------------------

TEST(Router, MergedDeviceLatencyEqualsPerDeviceRollup)
{
    FleetFixture fx;
    Router router(fx.corpus, fx.seed, fx.config(2, 1));
    for (int q = 0; q < 4; ++q)
        ASSERT_TRUE(
            router.admit(static_cast<uint64_t>(q + 1), fx.query(q))
                .ok());
    (void)router.drain();

    metrics::Histogram merged = router.mergedDeviceLatency();
    uint64_t pooled_count = 0;
    double pooled_sum = 0;
    auto &reg = metrics::Registry::get();
    for (unsigned d = 0; d < router.devices(); ++d) {
        auto &h = reg.histogram("fleet.device_served_seconds",
                                {{"device", std::to_string(d)}});
        pooled_count += h.count();
        pooled_sum += h.sum();
    }
    EXPECT_GT(merged.count(), 0u);
    EXPECT_EQ(merged.count(), pooled_count);
    EXPECT_DOUBLE_EQ(merged.sum(), pooled_sum);
}

// ---- tenant quotas, class shedding, and labeled fleet metrics -----------

TEST(Router, TenantQuotaShedsLoudlyAndReleasesOnCompletion)
{
    FleetFixture fx;
    FleetConfig cfg = fx.config(2, 1);
    cfg.quotas.push_back(FleetConfig::TenantQuota{"acme", 2});
    Router router(fx.corpus, fx.seed, cfg);

    auto &shed = metrics::Registry::get().counter(
        "recovery.shed", {{"site", "router"},
                          {"reason", "quota"},
                          {"tenant", "acme"},
                          {"slo_class", "1"}});
    double shed_before = shed.value();

    kernels::AdmitClass acme{"acme", 1};
    ASSERT_TRUE(router.admit(1, fx.query(0), 0.0, {}, acme).ok());
    ASSERT_TRUE(router.admit(2, fx.query(1), 0.0, {}, acme).ok());
    EXPECT_EQ(router.tenantInFlight("acme"), 2u);

    // Third in-flight query trips the cap: a loud pre-journal shed
    // (never ledgered, so it owes no outcome), labeled by tenant
    // and class.
    Status st = router.admit(3, fx.query(2), 0.0, {}, acme);
    EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(shed.value() - shed_before, 1.0);

    // Other tenants are untouched by acme's quota.
    ASSERT_TRUE(router
                    .admit(4, fx.query(3), 0.0, {},
                           kernels::AdmitClass{"other", 0})
                    .ok());

    // Completion releases the slots: the quota is in-FLIGHT, not
    // cumulative, so admission after a drain succeeds.
    auto outs = router.drain();
    EXPECT_EQ(outs.size(), 3u);
    EXPECT_EQ(router.tenantInFlight("acme"), 0u);
    EXPECT_TRUE(router.admit(5, fx.query(4), 0.0, {}, acme).ok());
    (void)router.drain();
}

TEST(Router, LowestClassShedsFirstUnderOverload)
{
    // With sloClasses=2 and a 2-deep admission queue, class 1 keeps
    // only half the depth budget: it sheds at depth 1 while class 0
    // still admits at that depth — the lowest class goes first.
    FleetFixture fx;
    FleetConfig cfg = fx.config(1, 1);
    cfg.server.admission.maxQueueDepth = 2;
    cfg.server.admission.sloClasses = 2;
    // A shed sub-query counts as a router-breaker failure (it hedges
    // to the next replica); widen the breaker so this test sees the
    // class caps, not the breaker tripping on the shed burst.
    cfg.server.breakerThreshold = 64;
    Router router(fx.corpus, fx.seed, cfg);

    auto &shed_low = metrics::Registry::get().counter(
        "recovery.shed", {{"device", "0"},
                          {"core", "0"},
                          {"reason", "depth"},
                          {"tenant", "t"},
                          {"slo_class", "1"}});
    double low_before = shed_low.value();

    kernels::AdmitClass low{"t", 1};
    kernels::AdmitClass high{"t", 0};
    ASSERT_TRUE(router.admit(1, fx.query(0), 0.0, {}, low).ok());
    // Depth 1 on every shard server: class 1's halved cap is full,
    // class 0's is not.
    EXPECT_FALSE(router.admit(2, fx.query(1), 0.0, {}, low).ok());
    EXPECT_GE(shed_low.value() - low_before, 1.0);
    ASSERT_TRUE(router.admit(3, fx.query(2), 0.0, {}, high).ok());
    // Depth 2: now even class 0 is at its full cap.
    EXPECT_FALSE(router.admit(4, fx.query(3), 0.0, {}, high).ok());
    (void)router.drain();
}

TEST(Router, ScatterMergeAndClassMetricsCarryTenantLabels)
{
    FleetFixture fx;
    Router router(fx.corpus, fx.seed, fx.config(2, 1));

    auto &reg = metrics::Registry::get();
    metrics::Labels cls_labels{{"tenant", "acme"},
                               {"slo_class", "1"}};
    auto &scatter =
        reg.counter("fleet.scatter.subqueries", cls_labels);
    auto &merge =
        reg.counter("fleet.merge.candidates", cls_labels);
    auto &served =
        reg.histogram("fleet.class_served_seconds", cls_labels);
    auto &unlabeled = reg.histogram("fleet.served_seconds", {});
    double scatter_before = scatter.value();
    double merge_before = merge.value();
    uint64_t served_before = served.count();
    uint64_t unlabeled_before = unlabeled.count();

    ASSERT_TRUE(router
                    .admit(1, fx.query(0), 0.0, {},
                           kernels::AdmitClass{"acme", 1})
                    .ok());
    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].ok);
    EXPECT_EQ(outs[0].cls.tenant, "acme");
    EXPECT_EQ(outs[0].cls.sloClass, 1u);

    // One sub-query per shard scattered; the merge models
    // shards * topK candidate inserts (what the merge time charge
    // bills); one per-class latency observation — all under the
    // query's own {tenant, slo_class} labels, while the unlabeled
    // fleet series keeps its old meaning.
    EXPECT_EQ(scatter.value() - scatter_before,
              static_cast<double>(router.shards()));
    EXPECT_EQ(merge.value() - merge_before,
              static_cast<double>(router.shards()) * 5.0);
    EXPECT_EQ(served.count() - served_before, 1u);
    EXPECT_EQ(unlabeled.count() - unlabeled_before, 1u);
}
