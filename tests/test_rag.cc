/**
 * @file
 * RAG retrieval kernel tests: every variant returns the exact
 * FAISS-lite top-k on small corpora; paper-scale timing reproduces
 * the Table 8 stage structure and the optimization speedups.
 */

#include <gtest/gtest.h>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "kernels/rag.hh"
#include "kernels/rag_model.hh"
#include "common/gsifloat.hh"
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr RagVariant allVariants[] = {
    RagVariant::NoOpt, RagVariant::Opt1, RagVariant::Opt2,
    RagVariant::Opt3, RagVariant::AllOpts,
};

std::vector<Hit>
referenceTopK(const RagCorpusSpec &spec, uint64_t seed,
              const std::vector<int16_t> &query, size_t k)
{
    auto emb = genEmbeddings(spec, 0, spec.numChunks, seed);
    IndexFlatI16 idx(spec.dim);
    idx.add(emb.data(), spec.numChunks);
    return idx.search(query.data(), k);
}

} // namespace

class RagFunctional : public ::testing::TestWithParam<RagVariant>
{
};

TEST_P(RagFunctional, TopKMatchesFaissLite)
{
    RagCorpusSpec spec{"small", 0, 2000, 368};
    auto query = genQuery(spec.dim, 31);
    auto expect = referenceTopK(spec, 17, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieve(query, GetParam(), 17);

    ASSERT_EQ(got.hits.size(), expect.size())
        << ragVariantName(GetParam());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, expect[i].id) << i;
        EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score) << i;
    }
}

TEST_P(RagFunctional, MultiTileCorpus)
{
    // Spans two score VRs / super-tiles (> 32768 chunks).
    RagCorpusSpec spec{"two-tiles", 0, 40000, 368};
    auto query = genQuery(spec.dim, 32);
    auto expect = referenceTopK(spec, 18, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieve(query, GetParam(), 18);

    ASSERT_EQ(got.hits.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, expect[i].id)
            << ragVariantName(GetParam()) << " " << i;
        EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, RagFunctional, ::testing::ValuesIn(allVariants),
    [](const ::testing::TestParamInfo<RagVariant> &info) {
        std::string name = ragVariantName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(RagBatch, EachQueryExactAgainstSingleRetrieval)
{
    RagCorpusSpec spec{"batch", 0, 5000, 368};
    std::vector<std::vector<int16_t>> queries;
    for (size_t q = 0; q < 4; ++q)
        queries.push_back(genQuery(spec.dim, 100 + q));

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto batch = retriever.retrieveBatch(queries, 55);
    ASSERT_EQ(batch.size(), queries.size());

    for (size_t q = 0; q < queries.size(); ++q) {
        auto expect = referenceTopK(spec, 55, queries[q], 5);
        ASSERT_EQ(batch[q].hits.size(), expect.size()) << q;
        for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(batch[q].hits[i].id, expect[i].id)
                << q << "/" << i;
            EXPECT_FLOAT_EQ(batch[q].hits[i].score,
                            expect[i].score);
        }
    }
}

TEST(RagBatch, AmortizesPerQueryLatency)
{
    const auto &spec = ragCorpora()[0];
    auto run_batch = [&](size_t n) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        dram::DramSystem hbm(dram::hbm2eConfig());
        RagRetriever retriever(dev, hbm, spec, 5);
        std::vector<std::vector<int16_t>> queries(
            n, genQuery(spec.dim, 1));
        return retriever.retrieveBatch(queries, 1)[0]
            .stages.total();
    };
    double b1 = run_batch(1);
    double b8 = run_batch(8);
    EXPECT_LT(b8, b1 * 0.6); // at least 1.6x amortization
    EXPECT_GT(b8, b1 / 8.0); // but not a free lunch
}

TEST(RagBatch, RejectsOversizedBatch)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    std::vector<std::vector<int16_t>> queries(
        9, genQuery(spec.dim, 1));
    EXPECT_DEATH((void)retriever.retrieveBatch(queries, 1),
                 "batch size");
}

namespace {

RagRunResult
timedRetrieve(const RagCorpusSpec &spec, RagVariant v)
{
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto query = genQuery(spec.dim, 1);
    return retriever.retrieve(query, v, 1);
}

} // namespace

TEST(RagTiming, Table8ShapeAt200GB)
{
    const auto &spec = ragCorpora()[2]; // 200 GB
    auto noopt = timedRetrieve(spec, RagVariant::NoOpt);
    auto all = timedRetrieve(spec, RagVariant::AllOpts);

    // Paper Table 8 at 200 GB (ms): load 8.2 -> 6.1, distance
    // 527.9 -> 74.6, topk ~1.3, return ~15 us, total 539.2 -> 84.2.
    EXPECT_NEAR(noopt.stages.loadEmbedding * 1e3, 8.2, 2.5);
    EXPECT_NEAR(all.stages.loadEmbedding * 1e3, 6.1, 2.0);
    EXPECT_GT(noopt.stages.loadEmbedding,
              all.stages.loadEmbedding);

    EXPECT_NEAR(noopt.stages.calcDistance * 1e3, 527.9, 250.0);
    EXPECT_NEAR(all.stages.calcDistance * 1e3, 74.6, 40.0);

    EXPECT_NEAR(noopt.stages.topkAggregation * 1e3, 1.3, 4.0);
    EXPECT_NEAR(all.stages.returnTopk * 1e6, 15.0, 10.0);

    // Total speedup: paper 539.2 / 84.2 = 6.4x; require 4-12x.
    double speedup = noopt.stages.total() / all.stages.total();
    EXPECT_GT(speedup, 4.0);
    EXPECT_LT(speedup, 12.0);
}

TEST(RagTiming, ScalesAcrossCorpora)
{
    // Paper: all-opts retrieval 3.9 / 20.6 / 84.2 ms.
    const double paper_ms[] = {3.9, 20.6, 84.2};
    size_t i = 0;
    double prev = 0.0;
    for (const auto &spec : ragCorpora()) {
        auto r = timedRetrieve(spec, RagVariant::AllOpts);
        double ms = r.stages.total() * 1e3;
        EXPECT_GT(ms, prev);
        EXPECT_NEAR(ms, paper_ms[i], paper_ms[i] * 0.6)
            << spec.label;
        prev = ms;
        ++i;
    }
}

TEST(RagTiming, Opt1DeliversMostOfTheGain)
{
    // Section 5.3.4: opt1 cuts 539.2 -> 86.1 ms; opt2/opt3 are
    // modest standalone but compound with opt1.
    const auto &spec = ragCorpora()[2];
    double noopt = timedRetrieve(spec, RagVariant::NoOpt)
                       .stages.total();
    double o1 = timedRetrieve(spec, RagVariant::Opt1)
                    .stages.total();
    double o2 = timedRetrieve(spec, RagVariant::Opt2)
                    .stages.total();
    double o3 = timedRetrieve(spec, RagVariant::Opt3)
                    .stages.total();
    double all = timedRetrieve(spec, RagVariant::AllOpts)
                     .stages.total();

    EXPECT_GT(noopt / o1, 4.0);           // opt1: large gain
    EXPECT_LT(noopt / o2, 1.5);           // opt2 alone: modest
    EXPECT_LT(noopt / o3, 1.1);           // opt3 alone: ~nothing
    EXPECT_LT(all, o1);                   // all opts best
    EXPECT_GT(noopt / all, 5.0);
}

TEST(RagTiming, QueryLoadSlowerWithBroadcastLayout)
{
    // Table 8: load query grows from ~10 us (no-opt) to ~62 us
    // (all-opts) because the query is staged into L3.
    const auto &spec = ragCorpora()[0];
    auto noopt = timedRetrieve(spec, RagVariant::NoOpt);
    auto all = timedRetrieve(spec, RagVariant::AllOpts);
    EXPECT_LT(noopt.stages.loadQuery * 1e6, 30.0);
    EXPECT_GT(all.stages.loadQuery * 1e6, 40.0);
    EXPECT_LT(all.stages.loadQuery * 1e6, 150.0);
}

TEST(RagTiming, ActivityForEnergyModel)
{
    const auto &spec = ragCorpora()[2];
    auto r = timedRetrieve(spec, RagVariant::AllOpts);
    EXPECT_NEAR(r.dramBytes, 2.4e9, 0.1e9);
    EXPECT_GT(r.cacheBytes, r.dramBytes);
    EXPECT_GT(r.computeSeconds, 0.0);
    EXPECT_LE(r.computeSeconds, r.stages.total());
}

TEST(RagModel, FrameworkTracksSimulatorOnDeviceStages)
{
    apu::ApuDevice cal;
    model::SubgroupReductionModel sg;
    sg.calibrate(cal.core(0));
    model::LatencyEstimator est;
    est.setSgModel(sg);

    for (const auto &spec : ragCorpora()) {
        for (auto v : {RagVariant::NoOpt, RagVariant::Opt1,
                       RagVariant::AllOpts}) {
            auto r = timedRetrieve(spec, v);
            // On-device stages only: everything but the HBM stream.
            double meas =
                (r.stages.total() - r.stages.loadEmbedding) *
                500.0e6;
            double pred = predictRagCycles(est, spec, v);
            EXPECT_NEAR(pred, meas, meas * 0.10)
                << spec.label << " " << ragVariantName(v);
        }
    }
}

namespace {

/** Host emulation of the gf16 accumulation the kernel performs. */
std::vector<Hit>
gf16ReferenceTopK(const RagCorpusSpec &spec, uint64_t seed,
                  const std::vector<int16_t> &query, size_t k)
{
    std::vector<Hit> all;
    for (size_t c = 0; c < spec.numChunks; ++c) {
        GsiFloat16 acc = GsiFloat16::fromFloat(0.0f);
        for (size_t d = 0; d < spec.dim; ++d) {
            GsiFloat16 e = GsiFloat16::fromFloat(
                static_cast<float>(embeddingValue(c, d, seed)));
            GsiFloat16 q = GsiFloat16::fromFloat(
                static_cast<float>(query[d]));
            acc = acc + e * q;
        }
        all.push_back({acc.toFloat(), c});
    }
    std::sort(all.begin(), all.end(), [](const Hit &a, const Hit &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.id < b.id;
    });
    all.resize(std::min(k, all.size()));
    return all;
}

} // namespace

TEST(RagGf16, TopKMatchesGf16Emulation)
{
    RagCorpusSpec spec{"gf16", 0, 3000, 368};
    auto query = genQuery(spec.dim, 61);
    auto expect = gf16ReferenceTopK(spec, 62, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieveGf16(query, 62);

    ASSERT_EQ(got.hits.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, expect[i].id) << i;
        EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score) << i;
    }
}

TEST(RagGf16, CloseToExactIntegerRanking)
{
    // gf16's 9-bit mantissa rounds large dot products; the top hit
    // should still be the exact top hit on realistic data.
    RagCorpusSpec spec{"gf16b", 0, 3000, 368};
    auto query = genQuery(spec.dim, 63);
    auto exact = referenceTopK(spec, 64, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieveGf16(query, 64);

    ASSERT_FALSE(got.hits.empty());
    EXPECT_EQ(got.hits[0].id, exact[0].id);
    // Rounded score within gf16 tolerance of the exact dot.
    EXPECT_NEAR(got.hits[0].score, exact[0].score,
                std::fabs(exact[0].score) * 0.02 + 8.0);
}

TEST(RagGf16, FasterDistanceThanInt16)
{
    // mul_gf16 (77) + add_gf16 vs mul_s16 (201) + add_s16: the
    // native float path wins on compute (Table 5).
    const auto &spec = ragCorpora()[2];
    apu::ApuDevice d1, d2;
    d1.core(0).setMode(apu::ExecMode::TimingOnly);
    d2.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem h1(dram::hbm2eConfig()), h2(dram::hbm2eConfig());
    RagRetriever r1(d1, h1, spec, 5), r2(d2, h2, spec, 5);
    auto q = genQuery(spec.dim, 1);
    double int_dist =
        r1.retrieve(q, RagVariant::AllOpts, 1).stages.calcDistance;
    double gf_dist = r2.retrieveGf16(q, 1).stages.calcDistance;
    EXPECT_LT(gf_dist, int_dist);
    EXPECT_GT(gf_dist, int_dist * 0.5);
}

// ---- ledger pins ---------------------------------------------------------
//
// The exact ledger of every retrieval path: stage latencies, the core's
// cycle total and the streamed bytes as hex floats, plus a digest of
// every query's hits. The Table 8 gates tolerate 10%, so only these
// catch a charge that moved by one cycle or a float sum that changed
// order. A mismatching or missing row prints the observed row in the
// table's own syntax.

namespace {

constexpr uint64_t kPinSeed = 4242;

struct LedgerPin
{
    const char *name;
    double loadEmbedding, loadQuery, calcDistance, topkAggregation,
        returnTopk, overlapHidden;
    double cycles;
    double dramBytes;
    uint64_t hitDigest; ///< FNV-1a over every query's (id, score bits)
    size_t hits;        ///< hits over all queries
};

const std::vector<LedgerPin> kPins = {
    {"ex.fn.b1",
     0x1.0da6dca32e98cp-14, 0x1.5aefa0f3664fdp-14, 0x1.6ab6e946e72b6p-10,
     0x1.77ace85e81485p-17, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.6c266p+19, 0x1.78388p+24, 0x2a7022d95cd644a4ull, 5},
    {"ex.fn.b8",
     0x1.0da6dca32e98cp-17, 0x1.6312b0171ab5p-17, 0x1.f0181a41e46acp-12,
     0x1.77ace85e81485p-17, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f0f69p+20, 0x1.78388p+21, 0x86ed8f7f3e64ab1full, 40},
    {"ex.fn.b8.filter",
     0x1.0e6268a52a40cp-17, 0x1.6312b0171ab5p-17, 0x1.f0181a41e46acp-12,
     0x1.77ace85e81485p-17, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f0f69p+20, 0x1.793e38p+21, 0x114cd46164db0fb8ull, 40},
    {"ex.fn.b8.overlap",
     0x1.0da6dca32e98cp-17, 0x1.6312b0171ab5p-17, 0x1.f0181a41e46acp-12,
     0x1.77ace85e81485p-17, 0x1.d5c31593e5fb8p-17, 0x1.ecbae4ff03e8p-19,
     0x1.f0f69p+20, 0x1.78388p+21, 0x86ed8f7f3e64ab1full, 40},
    {"ex.fn.b8.epoch",
     0x1.0e6268a52a40cp-17, 0x1.6312b0171ab5p-17, 0x1.f0181a41e46acp-12,
     0x1.77ace85e81485p-17, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f0f69p+20, 0x1.793e38p+21, 0xc31221ebe1e8e208ull, 40},
    {"ex.fn.b3.epoch.filter.overlap",
     0x1.697b5d883532p-16, 0x1.d1d60fdb591b7p-16, 0x1.69b59da89455cp-11,
     0x1.77ace85e81485p-17, 0x1.d5c31593e5fb8p-17, 0x1.4a6ed0034f055p-17,
     0x1.100bep+20, 0x1.f85a955555555p+22, 0xd5e53dc92b84c5b8ull, 15},
    {"ex.t.b1",
     0x1.47be6b889d813p-12, 0x1.5aefa0f3664fdp-14, 0x1.c563210c950edp-9,
     0x1.d5982276219a6p-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.b579p+20, 0x1.c9a44p+26, 0xcbf29ce484222325ull, 0},
    {"ex.t.b8",
     0x1.47be6b889d813p-15, 0x1.6312b0171ab5p-17, 0x1.360eafc62bc8ep-10,
     0x1.d5982276219a6p-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.2d993p+22, 0x1.c9a44p+23, 0xcbf29ce484222325ull, 0},
    {"ex.t.b8.filter.overlap",
     0x1.48a26a6f3f52fp-15, 0x1.6312b0171ab5p-17, 0x1.360eafc62bc8ep-10,
     0x1.d5982276219a6p-16, 0x1.d5c31593e5fb8p-17, 0x1.ff42c7f54c9cp-16,
     0x1.2d993p+22, 0x1.cae29cp+23, 0xcbf29ce484222325ull, 0},
    {"ex.t.b8.epoch",
     0x1.48a26a6f3f52fp-15, 0x1.6312b0171ab5p-17, 0x1.360eafc62bc8ep-10,
     0x1.d5982276219a6p-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.2d993p+22, 0x1.cae29cp+23, 0xcbf29ce484222325ull, 0},
    {"ivf.fn.p1",
     0x1.7a1d1c0f1ecb6p-20, 0x1.6312b0171ab5p-17, 0x1.80701f44355b8p-11,
     0x1.c4eaefe747e71p-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.755588p+21, 0x1.06358p+19, 0x69dd79e4446526e2ull, 40},
    {"ivf.fn.p2.filter",
     0x1.862608666a006p-20, 0x1.6312b0171ab5p-17, 0x1.dabd1ccde36fap-11,
     0x1.7bb18d676d5dcp-17, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.cba9cp+21, 0x1.0e9f8p+19, 0x3b7ff3c78bd56a5cull, 40},
    {"ivf.fn.pK.overlap",
     0x1.851e9bafd7acep-20, 0x1.6312b0171ab5p-17, 0x1.b21475e9f83dp-10,
     0x1.622005aeeb906p-15, 0x1.d5c31593e5fb8p-17, 0x1.669995de36p-23,
     0x1.a49388p+22, 0x1.0de4p+19, 0x458065afba0752bcull, 40},
    {"ivf.t.p1",
     0x1.e29464df52b64p-16, 0x1.6312b0171ab5p-17, 0x1.cf1f48abd190cp-11,
     0x1.86d11d9cfc833p-17, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.c10198p+21, 0x1.50ec28p+23, 0xcbf29ce484222325ull, 0},
    {"ivf.t.p2.filter",
     0x1.e3e417de1823ap-16, 0x1.6312b0171ab5p-17, 0x1.30a001a3d543p-10,
     0x1.6df1d3a00348cp-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.2707e4p+22, 0x1.51d688p+23, 0xcbf29ce484222325ull, 0},
    {"ivf.t.pK.overlap",
     0x1.e29464df52b64p-16, 0x1.6312b0171ab5p-17, 0x1.741192d81202fp-10,
     0x1.065ed8974a22dp-15, 0x1.d5c31593e5fb8p-17, 0x1.73826e5c5cacp-16,
     0x1.682744p+22, 0x1.50ec28p+23, 0xcbf29ce484222325ull, 0},
    {"one.fn.no-opt",
     0x1.c21961f33187ep-17, 0x1.cac195f32d1ap-19, 0x1.08febd70f571cp-10,
     0x1.75cbdf111d08dp-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f8d1p+18, 0x1.388p+22, 0x5085c4e53859fc88ull, 5},
    {"one.fn.opt1",
     0x1.444adac1d51f3p-17, 0x1.b43526527a206p-19, 0x1.ee5a6ebf03134p-11,
     0x1.73c879abe87bbp-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.d787cp+18, 0x1.c138p+21, 0x5085c4e53859fc88ull, 5},
    {"one.fn.opt2",
     0x1.c21961f33187ep-17, 0x1.cac195f32d1ap-19, 0x1.fb4aed16ccd3cp-11,
     0x1.75cbdf111d08dp-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.e3ad8p+18, 0x1.388p+22, 0x5085c4e53859fc88ull, 5},
    {"one.fn.opt3",
     0x1.c21961f33187ep-17, 0x1.cac195f32d1ap-19, 0x1.08febd70f571cp-10,
     0x1.75cbdf111d08dp-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f8d1p+18, 0x1.388p+22, 0x5085c4e53859fc88ull, 5},
    {"one.fn.all-opts",
     0x1.444adac1d51f3p-17, 0x1.68914a25fa20ep-14, 0x1.69ff6f83bddc9p-11,
     0x1.73c879abe87bbp-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.84a74p+18, 0x1.c138p+21, 0x5085c4e53859fc88ull, 5},
    {"one.fn.gf16",
     0x1.444adac1d51f3p-17, 0x1.5aefa0f3664fdp-14, 0x1.52e25016c3bbep-11,
     0x1.73c879abe87bbp-18, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.6d8a4p+18, 0x1.c138p+21, 0x883c014ea4c0d291ull, 5},
    {"one.t.no-opt",
     0x1.c7fdcd43a37c1p-12, 0x1.cac195f32d1ap-19, 0x1.0cc6867b7382ap-5,
     0x1.d0ba9816e29aap-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f55262p+23, 0x1.3e5cp+27, 0xcbf29ce484222325ull, 0},
    {"one.t.opt1",
     0x1.47be6b889d813p-12, 0x1.b43526527a206p-19, 0x1.34f681d1fcb78p-8,
     0x1.d0ba9816e29aap-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.227cd8p+21, 0x1.c9a44p+26, 0xcbf29ce484222325ull, 0},
    {"one.t.opt2",
     0x1.c7fdcd43a37c1p-12, 0x1.cac195f32d1ap-19, 0x1.015769af824a6p-5,
     0x1.d0ba9816e29aap-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.e00636p+23, 0x1.3e5cp+27, 0xcbf29ce484222325ull, 0},
    {"one.t.opt3",
     0x1.c7fdcd43a37c1p-12, 0x1.cac195f32d1ap-19, 0x1.0cc6867b7382ap-5,
     0x1.d0ba9816e29aap-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.f55262p+23, 0x1.3e5cp+27, 0xcbf29ce484222325ull, 0},
    {"one.t.all-opts",
     0x1.47be6b889d813p-12, 0x1.68914a25fa20ep-14, 0x1.c47b4499e2eaap-9,
     0x1.d0ba9816e29aap-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.b4fd9p+20, 0x1.c9a44p+26, 0xcbf29ce484222325ull, 0},
    {"one.t.gf16",
     0x1.47be6b889d813p-12, 0x1.5aefa0f3664fdp-14, 0x1.a79ae41c74aadp-9,
     0x1.d0ba9816e29aap-16, 0x1.d5c31593e5fb8p-17, 0x0p+0,
     0x1.99b35p+20, 0x1.c9a44p+26, 0xcbf29ce484222325ull, 0},
};

std::string
pinRow(const LedgerPin &p)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\",\n     %a, %a, %a,\n     %a, %a, %a,\n"
                  "     %a, %a, 0x%016llxull, %zu},",
                  p.name, p.loadEmbedding, p.loadQuery, p.calcDistance,
                  p.topkAggregation, p.returnTopk, p.overlapHidden,
                  p.cycles, p.dramBytes,
                  static_cast<unsigned long long>(p.hitDigest), p.hits);
    return buf;
}

/** Compare one retrieval call's ledger against its pinned row. */
void
expectPinned(const char *name, const std::vector<RagRunResult> &rs,
             apu::ApuDevice &dev)
{
    ASSERT_FALSE(rs.empty());
    const auto &s = rs[0].stages;
    LedgerPin got{name, s.loadEmbedding, s.loadQuery, s.calcDistance,
                  s.topkAggregation, s.returnTopk, s.overlapHidden,
                  dev.core(0).stats().cycles(), rs[0].dramBytes,
                  0xcbf29ce484222325ull, 0};
    auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8)
            got.hitDigest = (got.hitDigest ^ (v & 0xff)) *
                0x100000001b3ull;
    };
    for (size_t q = 0; q < rs.size(); ++q) {
        // The batch's stages fan out evenly: every query carries the
        // same ledger.
        const auto &t = rs[q].stages;
        EXPECT_TRUE(t.loadEmbedding == s.loadEmbedding &&
                    t.loadQuery == s.loadQuery &&
                    t.calcDistance == s.calcDistance &&
                    t.topkAggregation == s.topkAggregation &&
                    t.returnTopk == s.returnTopk &&
                    t.overlapHidden == s.overlapHidden &&
                    rs[q].dramBytes == rs[0].dramBytes)
            << name << " query " << q;
        for (const Hit &h : rs[q].hits) {
            uint32_t bits;
            std::memcpy(&bits, &h.score, sizeof(bits));
            mix(q);
            mix(h.id);
            mix(bits);
            ++got.hits;
        }
    }
    const LedgerPin *want = nullptr;
    for (const LedgerPin &p : kPins)
        if (std::strcmp(p.name, name) == 0)
            want = &p;
    ASSERT_NE(want, nullptr) << "unpinned ledger:\n" << pinRow(got);
    EXPECT_TRUE(got.loadEmbedding == want->loadEmbedding &&
                got.loadQuery == want->loadQuery &&
                got.calcDistance == want->calcDistance &&
                got.topkAggregation == want->topkAggregation &&
                got.returnTopk == want->returnTopk &&
                got.overlapHidden == want->overlapHidden &&
                got.cycles == want->cycles &&
                got.dramBytes == want->dramBytes &&
                got.hitDigest == want->hitDigest &&
                got.hits == want->hits)
        << "ledger moved; observed:\n" << pinRow(got);
}

std::vector<std::vector<int16_t>>
pinQueries(size_t b, size_t dim)
{
    std::vector<std::vector<int16_t>> qs;
    for (size_t q = 0; q < b; ++q)
        qs.push_back(genQuery(dim, 900 + q));
    return qs;
}

/** One retrieveBatch call on a fresh device, checked against its pin. */
void
pinBatch(const char *name, const RagCorpusSpec &spec, bool timing,
         const std::vector<std::vector<int16_t>> &queries,
         RagBatchOptions opts = {})
{
    apu::ApuDevice dev;
    if (timing)
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    expectPinned(name, retriever.retrieveBatch(queries, kPinSeed, opts),
                 dev);
}

/** An epoch overlay of `spec`: the last 300 chunks are inserts, and a
 *  few base and inserted chunks are tombstoned. */
CorpusEpochView
pinEpoch(RagCorpusSpec &spec)
{
    CorpusEpochView view;
    view.epoch = 3;
    view.baseChunks = spec.numChunks - 300;
    for (uint64_t i = 0; i < 300; ++i)
        view.inserted.push_back(spec.numChunks + 1000 + 7 * i);
    for (uint64_t id : {uint64_t(0), uint64_t(17), uint64_t(4099),
                        view.baseChunks - 1, view.inserted[5]})
        view.deleted.insert(id);
    return view;
}

/** Two supertiles, the second ragged. */
const RagCorpusSpec kPinExhaustive{"pin-ex", 0, 33500, 368};

} // namespace

TEST(RagLedgerPin, ExhaustiveFunctional)
{
    RagCorpusSpec spec = kPinExhaustive;
    pinBatch("ex.fn.b1", spec, false, pinQueries(1, spec.dim));
    pinBatch("ex.fn.b8", spec, false, pinQueries(8, spec.dim));

    RagBatchOptions filtered;
    filtered.search.filterMask = 0x00a5;
    pinBatch("ex.fn.b8.filter", spec, false, pinQueries(8, spec.dim),
             filtered);

    RagBatchOptions overlap;
    overlap.overlapStream = true;
    pinBatch("ex.fn.b8.overlap", spec, false, pinQueries(8, spec.dim),
             overlap);

    CorpusEpochView view = pinEpoch(spec);
    spec.epochView = &view;
    pinBatch("ex.fn.b8.epoch", spec, false, pinQueries(8, spec.dim));
    filtered.overlapStream = true;
    pinBatch("ex.fn.b3.epoch.filter.overlap", spec, false,
             pinQueries(3, spec.dim), filtered);
}

TEST(RagLedgerPin, ExhaustiveTimingOnly)
{
    RagCorpusSpec spec = ragCorpora()[0];
    pinBatch("ex.t.b1", spec, true, pinQueries(1, spec.dim));
    pinBatch("ex.t.b8", spec, true, pinQueries(8, spec.dim));

    RagBatchOptions both;
    both.search.filterMask = 0x00a5;
    both.overlapStream = true;
    pinBatch("ex.t.b8.filter.overlap", spec, true,
             pinQueries(8, spec.dim), both);

    CorpusEpochView view = pinEpoch(spec);
    spec.epochView = &view;
    pinBatch("ex.t.b8.epoch", spec, true, pinQueries(8, spec.dim));
}

namespace {

std::vector<std::vector<int16_t>>
topicQueries(const RagCorpusSpec &spec, size_t b)
{
    std::vector<std::vector<int16_t>> qs;
    for (size_t q = 0; q < b; ++q)
        qs.push_back(genQueryForTopic(spec, q % spec.topics, 700 + q,
                                      kPinSeed));
    return qs;
}

/** nprobe 1, 2 (filtered) and K (overlapped) on one retriever, so the
 *  later batches reuse the lists the earlier ones staged. */
void
pinIvf(const char *prefix, const RagCorpusSpec &spec,
       const IvfClustering &cl, bool timing)
{
    apu::ApuDevice dev;
    if (timing)
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto queries = topicQueries(spec, 8);
    RagBatchOptions opts;
    opts.ivf = &cl;
    const size_t nprobes[] = {1, 2, cl.numLists()};
    const char *names[] = {".p1", ".p2.filter", ".pK.overlap"};
    for (size_t i = 0; i < 3; ++i) {
        opts.search.nprobe = nprobes[i];
        opts.search.filterMask = i == 1 ? 0x00a5 : kFilterAll;
        opts.overlapStream = i == 2;
        expectPinned(
            (std::string(prefix) + names[i]).c_str(),
            retriever.retrieveBatch(queries, kPinSeed, opts), dev);
    }
}

} // namespace

TEST(RagLedgerPin, IvfFunctional)
{
    RagCorpusSpec spec{"pin-ivf", 0, 6000, 368, 0, 6};
    auto cl = IvfClustering::build(spec, kPinSeed,
                                   IvfBuildConfig{8, 2048, 3});
    pinIvf("ivf.fn", spec, cl, false);
}

TEST(RagLedgerPin, IvfTimingOnly)
{
    // Three lists over 120k chunks: some list spans more than one
    // supertile, so a probed run iterates a ragged multi-supertile
    // stream.
    RagCorpusSpec spec{"pin-ivf-t", 0, 120000, 368, 0, 6};
    auto cl = IvfClustering::build(spec, kPinSeed,
                                   IvfBuildConfig{3, 2048, 3});
    size_t long_lists = 0;
    for (size_t j = 0; j < cl.numLists(); ++j)
        long_lists += cl.listSize(j) > 32768;
    ASSERT_GT(long_lists, 0u);
    pinIvf("ivf.t", spec, cl, true);
}

TEST(RagLedgerPin, SingleQuery)
{
    RagCorpusSpec small{"pin-one", 0, 5000, 368};
    for (bool timing : {false, true}) {
        const RagCorpusSpec &spec = timing ? ragCorpora()[0] : small;
        auto query = genQuery(spec.dim, 901);
        std::string mode = timing ? "one.t." : "one.fn.";
        auto run = [&](const std::string &name, auto call) {
            apu::ApuDevice dev;
            if (timing)
                dev.core(0).setMode(apu::ExecMode::TimingOnly);
            dram::DramSystem hbm(dram::hbm2eConfig());
            RagRetriever retriever(dev, hbm, spec, 5);
            expectPinned((mode + name).c_str(), {call(retriever)}, dev);
        };
        for (RagVariant v : allVariants)
            run(ragVariantName(v), [&](RagRetriever &r) {
                return r.retrieve(query, v, kPinSeed);
            });
        run("gf16", [&](RagRetriever &r) {
            return r.retrieveGf16(query, kPinSeed);
        });
    }
}
