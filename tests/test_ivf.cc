/**
 * @file
 * IVF-lite clustered index + metadata-filtered search tests.
 *
 * The load-bearing invariants:
 *  - nprobe = numLists scans the same chunk set as the exhaustive
 *    path, so all four producers (device exhaustive, device IVF,
 *    flat golden, IVF golden) must bit-compare — filtered or not.
 *  - The metadata predicate behaves identically on-device (admit
 *    plane ANDed into the match mask) and on the CPU goldens,
 *    including the edge cases: empty filter (0 survivors), all-pass
 *    mask (bit-identical to unfiltered), ragged supertile tails.
 *  - Score ties at the k boundary resolve (score desc, id asc)
 *    everywhere: flat scan, filtered scan, IVF probe selection,
 *    per-supertile device extraction, and the fleet k-way merge.
 *  - overlapHidden never exceeds loadEmbedding (or calcDistance),
 *    including IVF's short probe-restricted streams, so
 *    RagStageLatency::total()'s unclamped subtraction is safe.
 *  - Per-query search params route through batching, serving,
 *    journal replay, and fleet scatter without mixing batches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "fleet/fleet.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr uint64_t kSeed = 7321;

/** All eight metadata labels admitted — but not the kFilterAll
 *  sentinel, so the filtered machinery engages. */
constexpr uint16_t kAllLabels = 0x00ff;

RagCorpusSpec
clusteredSpec(const char *label, size_t chunks, size_t topics)
{
    return RagCorpusSpec{label, 0, chunks, 368, 0, topics};
}

IndexFlatI16
buildFlat(const RagCorpusSpec &spec, uint64_t seed)
{
    IndexFlatI16 idx(spec.dim);
    auto emb =
        genEmbeddings(spec, spec.firstChunk, spec.numChunks, seed);
    idx.add(emb.data(), spec.numChunks);
    return idx;
}

void
expectSameHits(const std::vector<Hit> &got,
               const std::vector<Hit> &expect, const char *what)
{
    ASSERT_EQ(got.size(), expect.size()) << what;
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i].id, expect[i].id) << what << " rank " << i;
        EXPECT_FLOAT_EQ(got[i].score, expect[i].score)
            << what << " rank " << i;
    }
}

/** One functional device batch; fresh device per call. */
std::vector<RagRunResult>
deviceBatch(const RagCorpusSpec &spec, uint64_t seed,
            const std::vector<std::vector<int16_t>> &queries,
            size_t k, RagSearchParams search,
            const IvfClustering *ivf)
{
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, k);
    RagBatchOptions opts;
    opts.search = search;
    opts.ivf = ivf;
    return retriever.retrieveBatch(queries, seed, opts);
}

} // namespace

// ---- clustering construction -------------------------------------------

TEST(IvfClusteringTest, DeterministicAndCompletePartition)
{
    auto spec = clusteredSpec("ivf-build", 5000, 6);
    IvfBuildConfig cfg{16, 2048, 4};
    auto a = IvfClustering::build(spec, kSeed, cfg);
    auto b = IvfClustering::build(spec, kSeed, cfg);

    EXPECT_EQ(a.numLists(), 16u);
    EXPECT_EQ(a.numChunks(), spec.numChunks);
    EXPECT_EQ(a.centroids(), b.centroids());
    EXPECT_EQ(a.listOffsets(), b.listOffsets());
    EXPECT_EQ(a.order(), b.order());

    // The inverted lists partition the corpus: order() is a
    // permutation, ascending within each list (the device path's
    // per-supertile tie exactness depends on this).
    EXPECT_EQ(a.listOffsets().front(), 0u);
    EXPECT_EQ(a.listOffsets().back(), spec.numChunks);
    std::vector<bool> seen(spec.numChunks, false);
    for (size_t list = 0; list < a.numLists(); ++list) {
        uint32_t prev = 0;
        for (uint64_t i = a.listOffsets()[list];
             i < a.listOffsets()[list + 1]; ++i) {
            uint32_t id = a.order()[i];
            ASSERT_LT(id, spec.numChunks);
            EXPECT_FALSE(seen[id]) << "chunk " << id << " twice";
            seen[id] = true;
            if (i > a.listOffsets()[list]) {
                EXPECT_LT(prev, id)
                    << "list " << list << " not ascending";
            }
            prev = id;
            EXPECT_EQ(a.listOf(id), list);
        }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool s) { return s; }));
}

TEST(IvfClusteringTest, SelectProbesTieOrderAndClamp)
{
    auto spec = clusteredSpec("ivf-probes", 3000, 5);
    IvfBuildConfig cfg{8, 1024, 3};
    auto cl = IvfClustering::build(spec, kSeed, cfg);

    // A zero query ties every centroid at dot 0: probe order must
    // fall back to ascending list id (score desc, id asc).
    std::vector<int16_t> zero(spec.dim, 0);
    auto probes = cl.selectProbes(zero.data(), 3);
    ASSERT_EQ(probes.size(), 3u);
    for (uint32_t p = 0; p < 3; ++p)
        EXPECT_EQ(probes[p], p);

    // nprobe clamps to numLists; 0 selects nothing (the caller's
    // "exhaustive, don't probe" convention).
    EXPECT_EQ(cl.selectProbes(zero.data(), 99).size(),
              cl.numLists());
    EXPECT_TRUE(cl.selectProbes(zero.data(), 0).empty());

    // A real query's probes are distinct, valid, and score-ordered.
    auto q = genQueryForTopic(spec, 2, 11, kSeed);
    auto sel = cl.selectProbes(q.data(), cl.numLists());
    ASSERT_EQ(sel.size(), cl.numLists());
    for (size_t i = 1; i < sel.size(); ++i) {
        int64_t prev = cl.centroidDot(q.data(), sel[i - 1]);
        int64_t cur = cl.centroidDot(q.data(), sel[i]);
        EXPECT_TRUE(prev > cur || (prev == cur &&
                                   sel[i - 1] < sel[i]))
            << "probe order violated at " << i;
    }
}

TEST(IvfClusteringTest, AssignmentsPinnedOnFixedSpecs)
{
    // Centroids, list order and list sizes on three fixed specs,
    // fingerprinted (FNV-1a) from the scalar int64 scoring loop the
    // blocked kernel replaced. Any change to the Lloyd assignment,
    // the final assignment or the lowest-list-id tie rule moves one.
    struct Pin
    {
        RagCorpusSpec spec;
        uint64_t seed;
        IvfBuildConfig cfg;
        uint64_t centroids, order;
        std::vector<uint64_t> sizes;
    };
    const Pin pins[] = {
        {RagCorpusSpec{"pin-clustered", 0, 5000, 368, 0, 6}, kSeed,
         IvfBuildConfig{16, 2048, 4}, 0x8106f740c80ec10eull,
         0xaddda8f977696e05ull,
         {0, 540, 287, 1, 495, 669, 337, 509, 0, 317, 166, 0, 864,
          815, 0, 0}},
        {RagCorpusSpec{"pin-iid", 0, 3000, 368, 0, 0}, kSeed,
         IvfBuildConfig{8, 1024, 3}, 0xa46dae0e5d6672cdull,
         0xab1bbe707d97b9bdull,
         {381, 366, 365, 362, 374, 389, 394, 369}},
        {RagCorpusSpec{"pin-slice", 0, 2500, 96, 1000, 5}, 99,
         IvfBuildConfig{12, 700, 5}, 0x5abffe7fe6a32c4eull,
         0x97e325daaee67411ull,
         {467, 511, 493, 0, 0, 0, 0, 520, 20, 0, 489, 0}},
    };
    auto fnv = [](uint64_t h, uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
        return h;
    };
    for (const Pin &pin : pins) {
        auto cl = IvfClustering::build(pin.spec, pin.seed, pin.cfg);
        uint64_t hc = 0xcbf29ce484222325ull, ho = hc;
        for (int16_t c : cl.centroids())
            hc = fnv(hc, static_cast<uint16_t>(c));
        for (uint32_t o : cl.order())
            ho = fnv(ho, o);
        std::vector<uint64_t> sizes;
        for (size_t l = 0; l < cl.numLists(); ++l)
            sizes.push_back(cl.listSize(l));
        EXPECT_EQ(hc, pin.centroids) << pin.spec.label;
        EXPECT_EQ(ho, pin.order) << pin.spec.label;
        EXPECT_EQ(sizes, pin.sizes) << pin.spec.label;
    }
}

TEST(IvfClusteringTest, BuildFromRowsMatchesBuildFromHash)
{
    // Training from a materialized corpus (a shard's golden flat
    // index) reads the same rows the hash would generate, so the
    // clustering is identical: centroids, list extents and order.
    struct Case
    {
        RagCorpusSpec spec;
        uint64_t seed;
        IvfBuildConfig cfg;
    };
    const Case cases[] = {
        {RagCorpusSpec{"rows-clustered", 0, 5000, 368, 0, 6}, kSeed,
         IvfBuildConfig{16, 2048, 4}},
        {RagCorpusSpec{"rows-iid", 0, 3000, 368, 0, 0}, kSeed,
         IvfBuildConfig{8, 1024, 3}},
        {RagCorpusSpec{"rows-slice", 0, 2500, 96, 1000, 5}, 99,
         IvfBuildConfig{12, 700, 5}},
        {RagCorpusSpec{"rows-tiny", 0, 7, 368, 300, 3}, 5,
         IvfBuildConfig{16, 64, 2}}, // K clamps to the chunk count
    };
    for (const Case &c : cases) {
        auto flat = buildFlat(c.spec, c.seed);
        auto hashed = IvfClustering::build(c.spec, c.seed, c.cfg);
        auto shared = IvfClustering::build(c.spec, c.seed, c.cfg, &flat);
        EXPECT_EQ(shared.centroids(), hashed.centroids()) << c.spec.label;
        EXPECT_EQ(shared.listOffsets(), hashed.listOffsets())
            << c.spec.label;
        EXPECT_EQ(shared.order(), hashed.order()) << c.spec.label;
    }
}

// ---- CPU golden: nprobe = K identity, filter semantics -----------------

TEST(IvfGoldenTest, NprobeEqualsListsMatchesExhaustive)
{
    auto spec = clusteredSpec("ivf-identity", 4000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{16, 2048, 4}, &flat);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    for (int qi = 0; qi < 4; ++qi) {
        auto q = genQueryForTopic(spec, static_cast<size_t>(qi),
                                  200 + qi, kSeed);
        auto exhaustive = flat.search(q.data(), 10);
        auto probed = ivf.search(q.data(), 10, cl.numLists());
        expectSameHits(probed, exhaustive, "unfiltered identity");

        uint16_t mask = 0x0035; // labels {0, 2, 4, 5}
        auto fex = searchFilteredFlat(flat, spec, kSeed, q.data(),
                                      10, mask);
        auto fprobed =
            ivf.search(q.data(), 10, cl.numLists(), mask);
        expectSameHits(fprobed, fex, "filtered identity");
    }
}

TEST(IvfGoldenTest, FilterMaskEdgeCases)
{
    auto spec = clusteredSpec("ivf-mask", 3000, 4);
    auto flat = buildFlat(spec, kSeed);

    auto q = genQueryForTopic(spec, 1, 77, kSeed);

    // Empty filter: zero survivors, loudly empty — not k garbage.
    EXPECT_TRUE(searchFilteredFlat(flat, spec, kSeed, q.data(), 10,
                                   0x0000)
                    .empty());

    // All-pass mask: bit-identical to the unfiltered scan.
    auto unfiltered = flat.search(q.data(), 10);
    auto allpass = searchFilteredFlat(flat, spec, kSeed, q.data(),
                                      10, kAllLabels);
    expectSameHits(allpass, unfiltered, "all-pass == unfiltered");

    // Single-label filter: every survivor carries that label, and
    // the result equals a brute-force filtered rescore.
    for (uint16_t label = 0; label < kNumChunkLabels; ++label) {
        uint16_t mask = static_cast<uint16_t>(1u << label);
        auto hits = searchFilteredFlat(flat, spec, kSeed, q.data(),
                                       10, mask);
        for (const Hit &h : hits)
            EXPECT_EQ(chunkLabel(h.id, kSeed), label);
        std::vector<Hit> brute;
        for (size_t id = 0; id < spec.numChunks; ++id)
            if (chunkLabel(id, kSeed) == label)
                hitHeapPush(brute, 10,
                            Hit{static_cast<float>(
                                    flat.dot(q.data(), id)),
                                id});
        hitFinalize(brute);
        expectSameHits(hits, brute, "single-label");
    }
}

// ---- device path: 4-way bit-compare ------------------------------------

TEST(IvfDeviceTest, NprobeKFourWayBitCompare)
{
    auto spec = clusteredSpec("ivf-4way", 5000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{4, 2048, 4}, &flat);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<std::vector<int16_t>> queries;
    for (int qi = 0; qi < 3; ++qi)
        queries.push_back(genQueryForTopic(
            spec, static_cast<size_t>(qi), 300 + qi, kSeed));

    for (uint16_t mask : {kFilterAll, uint16_t(0x0029)}) {
        RagSearchParams exhaustive{0, mask};
        RagSearchParams probeAll{cl.numLists(), mask};
        auto devEx =
            deviceBatch(spec, kSeed, queries, 5, exhaustive,
                        nullptr);
        auto devIvf =
            deviceBatch(spec, kSeed, queries, 5, probeAll, &cl);
        ASSERT_EQ(devEx.size(), queries.size());
        ASSERT_EQ(devIvf.size(), queries.size());

        for (size_t qi = 0; qi < queries.size(); ++qi) {
            std::vector<Hit> golden =
                mask == kFilterAll
                    ? flat.search(queries[qi].data(), 5)
                    : searchFilteredFlat(flat, spec, kSeed,
                                         queries[qi].data(), 5,
                                         mask);
            auto goldenIvf = ivf.search(queries[qi].data(), 5,
                                        cl.numLists(), mask);
            expectSameHits(devEx[qi].hits, golden,
                           "device exhaustive vs flat golden");
            expectSameHits(devIvf[qi].hits, golden,
                           "device nprobe=K vs flat golden");
            expectSameHits(goldenIvf, golden,
                           "IVF golden vs flat golden");
        }
    }
}

TEST(IvfDeviceTest, ProbeRestrictedMatchesGoldenIvf)
{
    // At nprobe < K the answer is probe-restricted (recall < 1 is
    // possible); the device must still bit-compare with the CPU
    // IVF golden — same probes, same filter, same ties.
    auto spec = clusteredSpec("ivf-probe2", 5000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{6, 2048, 4}, &flat);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<std::vector<int16_t>> queries;
    for (int qi = 0; qi < 3; ++qi)
        queries.push_back(genQueryForTopic(
            spec, static_cast<size_t>(qi + 2), 400 + qi, kSeed));

    for (uint16_t mask : {kFilterAll, uint16_t(0x0013)}) {
        RagSearchParams p{2, mask};
        auto dev = deviceBatch(spec, kSeed, queries, 5, p, &cl);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
            auto golden =
                ivf.search(queries[qi].data(), 5, 2, mask);
            expectSameHits(dev[qi].hits, golden,
                           "device nprobe=2 vs IVF golden");
        }
    }
}

TEST(IvfDeviceTest, EmptyFilterYieldsNoSurvivorsOnDevice)
{
    auto spec = clusteredSpec("ivf-empty", 3000, 4);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{4, 1024, 3});
    std::vector<std::vector<int16_t>> queries{
        genQueryForTopic(spec, 0, 500, kSeed)};

    auto devEx = deviceBatch(spec, kSeed, queries, 5,
                             RagSearchParams{0, 0x0000}, nullptr);
    EXPECT_TRUE(devEx[0].hits.empty());
    EXPECT_EQ(devEx[0].topkIdsCount, 0u);

    auto devIvf = deviceBatch(spec, kSeed, queries, 5,
                              RagSearchParams{cl.numLists(),
                                              0x0000},
                              &cl);
    EXPECT_TRUE(devIvf[0].hits.empty());
    EXPECT_EQ(devIvf[0].topkIdsCount, 0u);
}

TEST(IvfDeviceTest, AllPassMaskBitIdenticalToUnfiltered)
{
    auto spec = clusteredSpec("ivf-allpass", 3000, 4);
    std::vector<std::vector<int16_t>> queries{
        genQueryForTopic(spec, 1, 600, kSeed),
        genQueryForTopic(spec, 3, 601, kSeed)};

    auto plain = deviceBatch(spec, kSeed, queries, 5,
                             RagSearchParams{}, nullptr);
    auto allpass =
        deviceBatch(spec, kSeed, queries, 5,
                    RagSearchParams{0, kAllLabels}, nullptr);
    for (size_t qi = 0; qi < queries.size(); ++qi)
        expectSameHits(allpass[qi].hits, plain[qi].hits,
                       "all-pass == unfiltered (device)");
}

TEST(IvfDeviceTest, FilteredRaggedSupertileBoundaries)
{
    // Corpus sizes straddling the 32768-lane supertile boundary:
    // the ragged tail's padding lanes must never surface (their
    // biased-zero dots would outrank real negative scores), and
    // the filter must stay exact across the word/bank edge.
    for (size_t chunks :
         {size_t(32767), size_t(32768), size_t(32769)}) {
        auto spec = clusteredSpec("ivf-ragged", chunks, 5);
        auto flat = buildFlat(spec, kSeed);
        std::vector<std::vector<int16_t>> queries{
            genQueryForTopic(spec, 0, 700, kSeed)};
        uint16_t mask = 0x0021; // labels {0, 5}

        auto dev = deviceBatch(spec, kSeed, queries, 5,
                               RagSearchParams{0, mask}, nullptr);
        auto golden = searchFilteredFlat(flat, spec, kSeed,
                                         queries[0].data(), 5,
                                         mask);
        expectSameHits(dev[0].hits, golden,
                       ("ragged filtered @" +
                        std::to_string(chunks))
                           .c_str());
    }
}

// ---- score ties at the k boundary --------------------------------------

TEST(IvfTieTest, AllEqualScoresPinLowestIdsEverywhere)
{
    // A zero query ties every chunk at dot 0. The k boundary then
    // cuts through one giant tie group, and every producer must
    // resolve it the same way: ids ascending.
    auto spec = clusteredSpec("ivf-ties", 40000, 4);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{4, 2048, 3}, &flat);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<int16_t> zero(spec.dim, 0);
    const size_t k = 7;
    auto expectLowest = [&](const std::vector<Hit> &hits,
                            const char *what) {
        ASSERT_EQ(hits.size(), k) << what;
        for (size_t i = 0; i < k; ++i) {
            EXPECT_EQ(hits[i].id, i) << what << " rank " << i;
            EXPECT_FLOAT_EQ(hits[i].score, 0.0f) << what;
        }
    };

    expectLowest(flat.search(zero.data(), k), "flat golden");
    expectLowest(searchFilteredFlat(flat, spec, kSeed, zero.data(),
                                    k, kAllLabels),
                 "filtered flat golden");
    expectLowest(ivf.search(zero.data(), k, cl.numLists()),
                 "IVF golden nprobe=K");

    // Device: the corpus spans two supertiles, so the boundary tie
    // crosses the per-VR extraction + CP merge path.
    std::vector<std::vector<int16_t>> queries{zero};
    auto devEx = deviceBatch(spec, kSeed, queries, k,
                             RagSearchParams{}, nullptr);
    expectLowest(devEx[0].hits, "device exhaustive");
    auto devIvf =
        deviceBatch(spec, kSeed, queries, k,
                    RagSearchParams{cl.numLists(), kFilterAll},
                    &cl);
    expectLowest(devIvf[0].hits, "device IVF nprobe=K");
}

TEST(IvfTieTest, FleetMergePinsLowestIdsOnAllEqualScores)
{
    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.replicas = 1;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 7;
    auto spec = clusteredSpec("ivf-fleet-ties", 2048, 4);
    fleet::Router router(spec, kSeed, cfg);

    std::vector<int16_t> zero(spec.dim, 0);
    ASSERT_TRUE(router.admit(1, zero).ok());
    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 1u);
    ASSERT_EQ(outs[0].hits.size(), 7u);
    for (size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(outs[0].hits[i].id, i) << "fleet rank " << i;
        EXPECT_FLOAT_EQ(outs[0].hits[i].score, 0.0f);
    }
}

// ---- overlap accounting -------------------------------------------------

TEST(IvfOverlapTest, HiddenNeverExceedsEitherOverlappedStage)
{
    auto spec = clusteredSpec("ivf-overlap", 40000, 8);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{16, 2048, 3});
    auto query = genQueryForTopic(spec, 3, 800, kSeed);

    auto timedRun = [&](RagSearchParams search,
                        const IvfClustering *ivf) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        dram::DramSystem hbm(dram::hbm2eConfig());
        RagRetriever retriever(dev, hbm, spec, 5);
        std::vector<std::vector<int16_t>> queries{query};
        RagBatchOptions opts;
        opts.overlapStream = true;
        opts.search = search;
        opts.ivf = ivf;
        return retriever.retrieveBatch(queries, kSeed, opts)[0];
    };

    // Exhaustive, multi-supertile: hidden is bounded by both the
    // stream and the compute it overlaps, so total() stays > 0.
    auto ex = timedRun(RagSearchParams{}, nullptr);
    EXPECT_LE(ex.stages.overlapHidden, ex.stages.loadEmbedding);
    EXPECT_LE(ex.stages.overlapHidden, ex.stages.calcDistance);
    EXPECT_GT(ex.stages.total(), 0.0);

    // IVF's short probe-restricted streams: every probed list is a
    // single ragged supertile here. The bound must hold — and with
    // one supertile in flight nothing can overlap at all.
    for (size_t nprobe : {size_t(1), size_t(3), cl.numLists()}) {
        auto r =
            timedRun(RagSearchParams{nprobe, kFilterAll}, &cl);
        EXPECT_LE(r.stages.overlapHidden, r.stages.loadEmbedding)
            << "nprobe=" << nprobe;
        EXPECT_LE(r.stages.overlapHidden, r.stages.calcDistance)
            << "nprobe=" << nprobe;
        EXPECT_GT(r.stages.total(), 0.0) << "nprobe=" << nprobe;
    }
    auto probe1 = cl.selectProbes(query.data(), 1);
    ASSERT_EQ(probe1.size(), 1u);
    if (cl.listSize(probe1[0]) <= 32768) {
        // The single probed list fits one ragged supertile: nothing
        // can pipeline, so the hidden portion is exactly zero (the
        // n = 1 case of the overlapHiddenSeconds bound).
        auto one = timedRun(RagSearchParams{1, kFilterAll}, &cl);
        EXPECT_EQ(one.stages.overlapHidden, 0.0)
            << "single supertile cannot overlap";
    }

    // A probe-restricted pass streams strictly less than the
    // exhaustive one (the whole point of the coarse quantizer).
    auto two = timedRun(RagSearchParams{2, kFilterAll}, &cl);
    EXPECT_LT(two.dramBytes, ex.dramBytes);
}

// ---- resident inverted lists --------------------------------------------

TEST(IvfResidentTest, OneBatchStagesOnlyItsProbedListsAndEachOnce)
{
    // A list is generated and staged the first time a batch probes
    // it and never again in the retriever's lifetime; the lists and
    // the centroid table live in two blocks allocated once.
    auto spec = clusteredSpec("ivf-lazy", 3000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{6, 1024, 3}, &flat);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    const size_t footprint = dev.allocator().liveCount();
    std::set<uint32_t> probed;
    auto batch = [&](RagSearchParams p, std::vector<size_t> topics) {
        std::vector<std::vector<int16_t>> qs;
        for (size_t t : topics)
            qs.push_back(genQueryForTopic(spec, t, 1300 + t, kSeed));
        RagBatchOptions opts;
        opts.search = p;
        opts.ivf = &cl;
        auto rs = retriever.retrieveBatch(qs, kSeed, opts);
        uint64_t rows = 0;
        for (size_t q = 0; q < qs.size(); ++q) {
            for (uint32_t j : cl.selectProbes(qs[q].data(), p.nprobe))
                probed.insert(j);
            expectSameHits(rs[q].hits,
                           ivf.search(qs[q].data(), 5, p.nprobe,
                                      p.filterMask),
                           "resident lists vs IVF golden");
        }
        for (uint32_t j : probed)
            rows += cl.listSize(j);
        EXPECT_EQ(retriever.stagedRows(), rows);
        EXPECT_EQ(dev.allocator().liveCount(), footprint + 2);
    };

    batch(RagSearchParams{1, kFilterAll}, {0});
    EXPECT_LT(retriever.stagedRows(), spec.numChunks);
    batch(RagSearchParams{2, 0x0013}, {0, 3});
    batch(RagSearchParams{cl.numLists(), kFilterAll}, {1, 2, 5});
    EXPECT_EQ(retriever.stagedRows(), spec.numChunks);
    batch(RagSearchParams{cl.numLists(), 0x0029}, {4});
    batch(RagSearchParams{1, kFilterAll}, {0});
    EXPECT_EQ(retriever.stagedRows(), spec.numChunks);
}

TEST(IvfResidentTest, MultiSupertileListStaysExactAcrossBatches)
{
    // One list of 33768 chunks: a segment of two ragged supertiles,
    // staged once and re-scored with a fresh admit plane per batch.
    auto spec = clusteredSpec("ivf-long", 33768, 3);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{1, 1024, 1}, &flat);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);
    ASSERT_EQ(cl.listSize(0), spec.numChunks);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    for (uint16_t mask : {kFilterAll, uint16_t(0x0021)}) {
        std::vector<std::vector<int16_t>> qs{
            genQueryForTopic(spec, 1, 1400 + mask, kSeed)};
        RagBatchOptions opts;
        opts.search = RagSearchParams{1, mask};
        opts.ivf = &cl;
        auto rs = retriever.retrieveBatch(qs, kSeed, opts);
        expectSameHits(rs[0].hits,
                       ivf.search(qs[0].data(), 5, 1, mask),
                       "two-supertile list vs IVF golden");
        EXPECT_EQ(retriever.stagedRows(), spec.numChunks);
    }
}

TEST(IvfResidentTest, ResidentListsMatchPerBatchRebuild)
{
    // `resident` keeps its probed lists staged across batches (one
    // staging per list per retriever lifetime); `rebuilt` tears its
    // retriever down before every batch (a reset with nothing
    // outstanding), so it stages the batch's lists afresh each time.
    // Through seeded random batches (nprobe 1, 2 and K, filtered and
    // not), a core reset and a quarantine kill with its escalated
    // reset, both give the same hits, ids, stage latencies and
    // CycleStats.
    auto spec = clusteredSpec("ivf-resident", 3000, 5);
    auto flat = buildFlat(spec, kSeed);

    ServerConfig cfg;
    cfg.topK = 5;
    cfg.ivf.enabled = true;
    cfg.ivf.build = IvfBuildConfig{4, 1024, 3};
    cfg.health.enabled = true;
    cfg.maxResets = 16;
    apu::ApuDevice dev_r, dev_f;
    DeviceServer resident(dev_r, spec, 0, &flat, kSeed, cfg);
    DeviceServer rebuilt(dev_f, spec, 0, &flat, kSeed, cfg);
    const IvfClustering &cl = *resident.clustering();
    IndexIvfI16 ivf(flat, cl, spec, kSeed);
    const size_t footprint = dev_r.allocator().liveCount();

    std::mt19937_64 rng(20261019);
    std::set<uint32_t> staged; // resident's lists since its last reset
    auto rows = [&](const std::set<uint32_t> &lists) {
        uint64_t n = 0;
        for (uint32_t j : lists)
            n += cl.listSize(j);
        return n;
    };
    uint64_t next_id = 1;
    size_t rounds = 0;
    auto round = [&](bool kill) {
        // Every six rounds cover nprobe 1, 2 and K, each unfiltered
        // and under a random filter.
        const size_t nprobes[] = {1, 2, cl.numLists()};
        RagSearchParams search;
        search.nprobe = nprobes[rounds % 3];
        if (rounds++ % 6 >= 3)
            search.filterMask = static_cast<uint16_t>(rng() & 0xff);
        std::vector<std::vector<int16_t>> qs(1 + rng() % 8);
        std::set<uint32_t> probed;
        for (uint64_t q = 0; q < qs.size(); ++q) {
            qs[q] = genQueryForTopic(spec, rng() % 5, 1500 + next_id + q,
                                     kSeed);
            for (uint32_t j : cl.selectProbes(qs[q].data(), search.nprobe))
                probed.insert(j);
            ASSERT_TRUE(resident.enqueue(next_id + q, qs[q], search).ok());
        }
        if (kill) {
            resident.forceQuarantine();
            staged.clear();
        }
        rebuilt.forceReset();
        for (uint64_t q = 0; q < qs.size(); ++q)
            ASSERT_TRUE(rebuilt.enqueue(next_id + q, qs[q], search).ok());
        auto a = resident.drain();
        auto b = rebuilt.drain();
        ASSERT_EQ(a.size(), qs.size());
        ASSERT_EQ(b.size(), qs.size());
        auto by_id = [](const ServeOutcome &x, const ServeOutcome &y) {
            return x.id < y.id;
        };
        std::sort(a.begin(), a.end(), by_id);
        std::sort(b.begin(), b.end(), by_id);
        for (size_t i = 0; i < a.size(); ++i) {
            std::string at = "query " + std::to_string(a[i].id);
            EXPECT_TRUE(a[i].ok && a[i].fromDevice) << at;
            EXPECT_EQ(a[i].id, b[i].id) << at;
            EXPECT_EQ(a[i].ids, b[i].ids) << at;
            expectSameHits(a[i].run.hits, b[i].run.hits, at.c_str());
            expectSameHits(a[i].run.hits,
                           ivf.search(qs[i].data(), cfg.topK,
                                      search.nprobe, search.filterMask),
                           at.c_str());
            const auto &x = a[i].run.stages;
            const auto &y = b[i].run.stages;
            EXPECT_EQ(x.loadEmbedding, y.loadEmbedding) << at;
            EXPECT_EQ(x.loadQuery, y.loadQuery) << at;
            EXPECT_EQ(x.calcDistance, y.calcDistance) << at;
            EXPECT_EQ(x.topkAggregation, y.topkAggregation) << at;
            EXPECT_EQ(x.returnTopk, y.returnTopk) << at;
            EXPECT_EQ(x.overlapHidden, y.overlapHidden) << at;
        }
        const apu::CycleStats &sr = dev_r.core(0).stats();
        const apu::CycleStats &sf = dev_f.core(0).stats();
        EXPECT_EQ(sr.cycles(), sf.cycles());
        EXPECT_EQ(sr.uops(), sf.uops());
        EXPECT_EQ(sr.breakdown(), sf.breakdown());

        // The list and centroid blocks are the two held beyond the
        // server's construction footprint; each list is staged at
        // most once per retriever, a one-batch retriever only its
        // batch's lists.
        EXPECT_EQ(dev_r.allocator().liveCount(), footprint + 2);
        staged.insert(probed.begin(), probed.end());
        EXPECT_EQ(resident.retriever().stagedRows(), rows(staged));
        EXPECT_EQ(rebuilt.retriever().stagedRows(), rows(probed));
        next_id += 100;
    };

    for (int r = 0; r < 4; ++r)
        round(false);
    resident.forceReset();
    staged.clear();
    for (int r = 0; r < 2; ++r)
        round(false);
    round(true);
    for (int r = 0; r < 2; ++r)
        round(false);
    EXPECT_EQ(resident.resets(), 2u);
}

// ---- batching + serving -------------------------------------------------

TEST(IvfServingTest, BatchFormerSplitsOnSearchParams)
{
    BatchFormer former(BatchPolicy{8, 16});
    RagSearchParams a{0, kFilterAll};
    RagSearchParams b{2, 0x0003};
    auto pq = [&](uint64_t id, RagSearchParams p) {
        return PendingQuery{id, std::vector<int16_t>(4, 0), 0.0,
                            p};
    };
    former.admit(pq(1, a));
    former.admit(pq(2, a));
    former.admit(pq(3, b));
    former.admit(pq(4, a));
    former.admit(pq(5, a));

    // FIFO prefixes split exactly at the param boundary; order is
    // never rearranged to pack fuller batches.
    auto b1 = former.takeBatch();
    ASSERT_EQ(b1.size(), 2u);
    EXPECT_EQ(b1[0].id, 1u);
    EXPECT_EQ(b1[1].id, 2u);
    EXPECT_TRUE(b1[0].search == a);

    auto b2 = former.takeBatch();
    ASSERT_EQ(b2.size(), 1u);
    EXPECT_EQ(b2[0].id, 3u);
    EXPECT_TRUE(b2[0].search == b);

    auto b3 = former.takeBatch();
    ASSERT_EQ(b3.size(), 2u);
    EXPECT_EQ(b3[0].id, 4u);
    EXPECT_EQ(b3[1].id, 5u);
    EXPECT_TRUE(former.empty());
}

TEST(IvfServingTest, ServerHonoursPerQueryParamsEndToEnd)
{
    auto spec = clusteredSpec("ivf-serving", 3000, 5);
    auto flat = buildFlat(spec, kSeed);

    apu::ApuDevice dev;
    ServerConfig cfg;
    cfg.topK = 5;
    cfg.ivf.enabled = true;
    cfg.ivf.build = IvfBuildConfig{4, 1024, 3};
    cfg.batch.maxBatch = 4;
    cfg.batch.maxLingerAdmissions = 64; // hold until drain
    DeviceServer server(dev, spec, 0, &flat, kSeed, cfg);
    ASSERT_NE(server.clustering(), nullptr);
    const IvfClustering &cl = *server.clustering();
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    struct Want
    {
        uint64_t id;
        RagSearchParams p;
    };
    std::vector<Want> wants{
        {1, RagSearchParams{0, kFilterAll}},
        {2, RagSearchParams{0, kFilterAll}},
        {3, RagSearchParams{2, 0x0015}},
        {4, RagSearchParams{cl.numLists(), kFilterAll}},
        {5, RagSearchParams{0, 0x0000}}, // empty filter
    };
    std::vector<std::vector<int16_t>> qs;
    for (const Want &w : wants) {
        qs.push_back(genQueryForTopic(
            spec, static_cast<size_t>(w.id % 5), 900 + w.id,
            kSeed));
        ASSERT_TRUE(
            server.enqueue(w.id, qs.back(), w.p).ok());
    }

    auto outs = server.drain();
    ASSERT_EQ(outs.size(), wants.size());
    // Param boundaries forced at least three batches.
    EXPECT_GE(server.former().batchesFormed(), 3u);

    std::sort(outs.begin(), outs.end(),
              [](const ServeOutcome &x, const ServeOutcome &y) {
                  return x.id < y.id;
              });
    for (size_t i = 0; i < wants.size(); ++i) {
        const Want &w = wants[i];
        ASSERT_EQ(outs[i].id, w.id);
        ASSERT_TRUE(outs[i].ok);
        std::vector<Hit> expect;
        if (w.p.nprobe > 0)
            expect = ivf.search(qs[i].data(), cfg.topK,
                                w.p.nprobe, w.p.filterMask);
        else if (w.p.filterMask != kFilterAll)
            expect = searchFilteredFlat(flat, spec, kSeed,
                                        qs[i].data(), cfg.topK,
                                        w.p.filterMask);
        else
            expect = flat.search(qs[i].data(), cfg.topK);
        expectSameHits(outs[i].run.hits, expect, "serving e2e");
        ASSERT_EQ(outs[i].ids.size(), expect.size())
            << "query " << w.id;
        for (size_t r = 0; r < expect.size(); ++r)
            EXPECT_EQ(outs[i].ids[r],
                      static_cast<uint32_t>(expect[r].id));
    }
    // The empty-filter query must come back loudly empty — no
    // stale ids read out of the device buffer.
    EXPECT_TRUE(outs.back().ids.empty());
    EXPECT_TRUE(outs.back().run.hits.empty());
}

TEST(IvfServingTest, NprobeWithoutClusteringDies)
{
    auto spec = clusteredSpec("ivf-noivf", 512, 3);
    apu::ApuDevice dev;
    DeviceServer server(dev, spec, 0, nullptr, kSeed, {});
    EXPECT_DEATH((void)server.enqueue(
                     1, std::vector<int16_t>(spec.dim, 0),
                     RagSearchParams{2, kFilterAll}),
                 "IVF");
}

TEST(IvfServingTest, ResidentListsOverTheCoreL4ShareAreRejected)
{
    // A 16 MiB-per-core device. 2048 x 128 stages one exhaustive
    // supertile of 128 64 KiB planes (8 MiB); with 4 IVF lists add
    // up to 1 + 4 list supertiles and the centroid table (56 MiB).
    apu::ApuSpec small = apu::defaultSpec();
    small.l4Bytes = 64ull << 20;
    RagCorpusSpec spec{"ivf-share", 0, 2048, 128};
    EXPECT_TRUE(validateFunctionalShard(small, spec).ok());
    Status st = validateFunctionalShard(small, spec, 4);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("L4 share"), std::string::npos)
        << st.message();
    apu::ApuSpec roomy = small;
    roomy.l4Bytes = 256ull << 20;
    EXPECT_TRUE(validateFunctionalShard(roomy, spec, 4).ok());

    ServerConfig cfg;
    cfg.ivf.enabled = true;
    cfg.ivf.build = IvfBuildConfig{4, 512, 2};
    EXPECT_DEATH(
        {
            apu::ApuDevice dev(small);
            DeviceServer server(dev, spec, 0, nullptr, kSeed, cfg);
        },
        "L4 share");
}

TEST(IvfServingTest, CentroidTableOverOneVrIsRejected)
{
    // The coarse pass scores the whole centroid table as one VR, in
    // every execution mode.
    const apu::ApuSpec &spec = apu::defaultSpec();
    size_t l = spec.vrLength;
    EXPECT_TRUE(validateIvfLists(spec, l).ok());
    Status st = validateIvfLists(spec, l + 1);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("exceeds one"), std::string::npos)
        << st.message();
    auto tiny = clusteredSpec("ivf-wide-k", 512, 3);
    EXPECT_EQ(validateFunctionalShard(spec, tiny, l + 1).code(),
              StatusCode::InvalidArgument);

    ServerConfig cfg;
    cfg.ivf.enabled = true;
    cfg.ivf.build = IvfBuildConfig{l + 1, 512, 2};
    for (bool functional : {true, false})
        EXPECT_DEATH(
            {
                apu::ApuDevice dev;
                if (!functional)
                    dev.core(0).setMode(apu::ExecMode::TimingOnly);
                DeviceServer server(dev, tiny, 0, nullptr, kSeed, cfg);
            },
            "exceeds one")
            << (functional ? "functional" : "timing-only");
}

TEST(IvfServingTest, ParamsSurviveJournalReplayAcrossReset)
{
    auto spec = clusteredSpec("ivf-replay", 2000, 4);
    auto flat = buildFlat(spec, kSeed);

    apu::ApuDevice dev;
    ServerConfig cfg;
    cfg.topK = 5;
    cfg.ivf.enabled = true;
    cfg.ivf.build = IvfBuildConfig{4, 1024, 3};
    cfg.health.enabled = true;
    DeviceServer server(dev, spec, 0, &flat, kSeed, cfg);
    const IvfClustering &cl = *server.clustering();
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    RagSearchParams p{2, 0x0009};
    auto q = genQueryForTopic(spec, 1, 1000, kSeed);
    ASSERT_TRUE(server.enqueue(7, q, p).ok());

    // Force the reset choreography: the journaled query replays
    // with its original params through the rebuilt retriever.
    server.forceReset();
    EXPECT_EQ(server.replayedQueries(), 1u);
    auto outs = server.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].id, 7u);
    ASSERT_TRUE(outs[0].ok);
    auto expect = ivf.search(q.data(), cfg.topK, p.nprobe,
                             p.filterMask);
    expectSameHits(outs[0].run.hits, expect, "replayed params");
}

// ---- fleet --------------------------------------------------------------

TEST(IvfFleetTest, PerShardNprobeAllMergesToGlobalFilteredAnswer)
{
    auto spec = clusteredSpec("ivf-fleet", 2048, 4);
    auto global = buildFlat(spec, kSeed);

    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.replicas = 2;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 5;
    cfg.server.ivf.enabled = true;
    cfg.server.ivf.build = IvfBuildConfig{4, 512, 3};
    fleet::Router router(spec, kSeed, cfg);

    // nprobe >= every shard's list count degenerates to exhaustive
    // per shard, so the merged answer must equal the global
    // filtered scan bit-for-bit.
    RagSearchParams p{64, 0x0027};
    std::vector<std::vector<int16_t>> qs;
    for (uint64_t id = 1; id <= 6; ++id) {
        qs.push_back(genQueryForTopic(
            spec, static_cast<size_t>(id % 4), 1100 + id, kSeed));
        ASSERT_TRUE(router.admit(id, qs.back(), 0.0, p).ok());
    }

    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 6u);
    EXPECT_EQ(router.ledgerOutstanding(), 0u);
    std::sort(outs.begin(), outs.end(),
              [](const fleet::FleetOutcome &a,
                 const fleet::FleetOutcome &b) {
                  return a.id < b.id;
              });
    for (size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].ok) << "query " << outs[i].id;
        auto expect = searchFilteredFlat(global, spec, kSeed,
                                         qs[i].data(), cfg.topK,
                                         p.filterMask);
        expectSameHits(outs[i].hits, expect, "fleet filtered");
    }
}

TEST(IvfFleetTest, EvacuationPreservesSearchParams)
{
    auto spec = clusteredSpec("ivf-evac", 2048, 4);
    auto global = buildFlat(spec, kSeed);

    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.replicas = 2;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 5;
    cfg.server.ivf.enabled = true;
    cfg.server.ivf.build = IvfBuildConfig{4, 512, 3};
    cfg.server.batch.maxLingerAdmissions = 64; // keep in-flight
    fleet::Router router(spec, kSeed, cfg);

    RagSearchParams p{64, 0x001a};
    std::vector<std::vector<int16_t>> qs;
    for (uint64_t id = 1; id <= 4; ++id) {
        qs.push_back(genQueryForTopic(
            spec, static_cast<size_t>(id % 4), 1200 + id, kSeed));
        ASSERT_TRUE(router.admit(id, qs.back(), 0.0, p).ok());
    }

    // Kill a device with the queries still queued: its sub-queries
    // evacuate and replay on replicas carrying the same params.
    router.killDevice(0);
    EXPECT_GT(router.evacuatedQueries(), 0u);

    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 4u);
    std::sort(outs.begin(), outs.end(),
              [](const fleet::FleetOutcome &a,
                 const fleet::FleetOutcome &b) {
                  return a.id < b.id;
              });
    for (size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].ok) << "query " << outs[i].id;
        auto expect = searchFilteredFlat(global, spec, kSeed,
                                         qs[i].data(), cfg.topK,
                                         p.filterMask);
        expectSameHits(outs[i].hits, expect, "post-evacuation");
    }
}
