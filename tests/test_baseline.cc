/**
 * @file
 * Baseline tests: FAISS-lite exactness and threading equivalence,
 * Phoenix CPU correctness (seq == par), timing-model calibration
 * against the paper's aggregate statistics.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baseline/faisslite.hh"
#include "baseline/phoenix_cpu.hh"
#include "baseline/timing_models.hh"
#include "baseline/workloads.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace cisram;
using namespace cisram::baseline;

namespace {

std::vector<float>
randomVecs(size_t n, size_t dim, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n * dim);
    for (auto &x : v)
        x = rng.nextFloat(-1.0f, 1.0f);
    return v;
}

/** Exhaustive reference top-k. */
std::vector<Hit>
naiveTopK(const IndexFlat &idx, const float *q, size_t k)
{
    std::vector<Hit> all;
    for (size_t i = 0; i < idx.size(); ++i)
        all.push_back({idx.score(q, i), i});
    std::sort(all.begin(), all.end(), [](const Hit &a, const Hit &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.id < b.id;
    });
    all.resize(std::min(k, all.size()));
    return all;
}

} // namespace

TEST(FaissLite, ExactTopKMatchesNaive)
{
    const size_t dim = 24, n = 2000, k = 10;
    IndexFlat idx(dim);
    auto data = randomVecs(n, dim, 1);
    idx.add(data.data(), n);
    auto q = randomVecs(1, dim, 2);

    auto got = idx.search(q.data(), k);
    auto expect = naiveTopK(idx, q.data(), k);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(got[i].id, expect[i].id) << i;
        EXPECT_FLOAT_EQ(got[i].score, expect[i].score) << i;
    }
}

TEST(FaissLite, ThreadedSearchIdenticalToSequential)
{
    const size_t dim = 16, n = 5003, k = 25;
    IndexFlat idx(dim);
    auto data = randomVecs(n, dim, 3);
    idx.add(data.data(), n);
    auto q = randomVecs(1, dim, 4);
    auto seq = idx.search(q.data(), k, 1);
    for (unsigned threads : {2u, 4u, 7u}) {
        auto par = idx.search(q.data(), k, threads);
        EXPECT_EQ(par, seq) << threads << " threads";
    }
}

TEST(FaissLite, L2MetricPrefersNearest)
{
    IndexFlat idx(2, Metric::L2);
    float vecs[] = {0, 0, 5, 5, 1, 1};
    idx.add(vecs, 3);
    float q[] = {0.9f, 0.9f};
    auto hits = idx.search(q, 3);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0].id, 2u);
    EXPECT_EQ(hits[1].id, 0u);
    EXPECT_EQ(hits[2].id, 1u);
}

TEST(FaissLite, KClampedAndDeterministicTies)
{
    IndexFlat idx(2);
    float vecs[] = {1, 0, 1, 0, 1, 0};
    idx.add(vecs, 3);
    float q[] = {1, 0};
    auto hits = idx.search(q, 10);
    ASSERT_EQ(hits.size(), 3u);
    // All scores tie; ids ascend.
    EXPECT_EQ(hits[0].id, 0u);
    EXPECT_EQ(hits[1].id, 1u);
    EXPECT_EQ(hits[2].id, 2u);
}

TEST(FaissLite, Int16IndexMatchesFloat)
{
    const size_t dim = 368, n = 500, k = 5;
    RagCorpusSpec spec{"test", 0, n, dim};
    auto emb = genEmbeddings(spec, 0, n, 7);
    auto q = genQuery(dim, 8);

    IndexFlatI16 idx16(dim);
    idx16.add(emb.data(), n);

    std::vector<float> embf(emb.begin(), emb.end());
    std::vector<float> qf(q.begin(), q.end());
    IndexFlat idxf(dim);
    idxf.add(embf.data(), n);

    auto a = idx16.search(q.data(), k);
    auto b = idxf.search(qf.data(), k);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_FLOAT_EQ(a[i].score, b[i].score);
    }
    // Threaded i16 search identical as well.
    EXPECT_EQ(idx16.search(q.data(), k, 4), a);
}

TEST(GoldenKernel, DotBlockMatchesScalarInt64)
{
    // Every query-block remainder (nq mod 4), ragged row counts and
    // odd dims, against a plain int64 loop.
    Rng rng(11);
    for (size_t dim : {1u, 2u, 17u, 96u, 368u}) {
        for (size_t nq = 1; nq <= 9; ++nq) {
            size_t nrows = 1 + rng.nextBelow(70);
            std::vector<int16_t> q(nq * dim), r(nrows * dim);
            for (auto &x : q)
                x = static_cast<int16_t>(
                    static_cast<int>(rng.nextBelow(15)) - 7);
            for (auto &x : r)
                x = static_cast<int16_t>(
                    static_cast<int>(rng.nextBelow(15)) - 7);
            std::vector<const int16_t *> rows(nrows);
            for (size_t i = 0; i < nrows; ++i)
                rows[i] = r.data() + i * dim;
            std::vector<int32_t> got(nq * nrows);
            dotBlock(q.data(), nq, rows.data(), nrows, dim,
                     got.data());
            for (size_t a = 0; a < nq; ++a)
                for (size_t b = 0; b < nrows; ++b) {
                    int64_t want = 0;
                    for (size_t d = 0; d < dim; ++d)
                        want += static_cast<int64_t>(q[a * dim + d]) *
                            r[b * dim + d];
                    ASSERT_EQ(got[a * nrows + b], want)
                        << "dim " << dim << " query " << a << " row "
                        << b;
                }
        }
    }
}

TEST(GoldenKernel, OutOfBudgetRowIsRejected)
{
    const size_t dim = 368;
    // The extreme in-budget row and query: 368 * 7 * 7 = 18032.
    std::vector<int16_t> sevens(dim, kMaxElement);
    EXPECT_TRUE(withinDotBudget(sevens.data(), dim));
    IndexFlatI16 idx(dim);
    ASSERT_TRUE(idx.add(sevens.data(), 1).ok());
    EXPECT_EQ(idx.dot(sevens.data(), 0), 18032);

    // An element past the quantization range. Against an equal
    // query the true dot, 368 * 32767^2, does not fit an int32: the
    // row must be refused before any dot can wrap.
    std::vector<int16_t> huge(dim, INT16_MAX);
    EXPECT_FALSE(withinDotBudget(huge.data(), dim));
    std::vector<int16_t> two(2 * dim, 1);
    std::copy(huge.begin(), huge.end(), two.begin() + dim);
    Status st = idx.add(two.data(), 2);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(idx.size(), 1u) << "a rejected batch must add nothing";

    // Every element in range, but too many of them: 700 * 7 * 7 >
    // kMaxDot, so a long row is out of budget too.
    std::vector<int16_t> longRow(700, kMaxElement);
    EXPECT_FALSE(withinDotBudget(longRow.data(), longRow.size()));
    IndexFlatI16 wide(longRow.size());
    EXPECT_FALSE(wide.add(longRow.data(), 1).ok());
    EXPECT_EQ(wide.size(), 0u);

    // A query outside the budget is refused at the golden's entry.
    EXPECT_DEATH((void)idx.search(huge.data(), 1), "exactness budget");
}

TEST(Workloads, EmbeddingsDeterministicAndBounded)
{
    const auto &spec = ragCorpora()[0];
    EXPECT_EQ(spec.numChunks, 163000u);
    EXPECT_NEAR(spec.embeddingBytes(), 120.0e6, 1.0e6);
    auto a = genEmbeddings(spec, 1000, 10, 42);
    auto b = genEmbeddings(spec, 1000, 10, 42);
    EXPECT_EQ(a, b);
    for (int16_t v : a) {
        EXPECT_GE(v, -7);
        EXPECT_LE(v, 7);
    }
    // Inner products stay within int16.
    auto q = genQuery(spec.dim, 1);
    int64_t max_dot = static_cast<int64_t>(spec.dim) * 7 * 7;
    EXPECT_LE(max_dot, 32767);
}

TEST(Workloads, CorpusSpecsMatchPaper)
{
    const auto &cs = ragCorpora();
    ASSERT_EQ(cs.size(), 3u);
    EXPECT_NEAR(cs[1].embeddingBytes(), 600.0e6, 5.0e6);
    EXPECT_NEAR(cs[2].embeddingBytes(), 2.4e9, 0.05e9);
}

TEST(PhoenixCpu, HistogramSeqParEquivalent)
{
    auto in = genHistogramInput(300000, 5);
    auto seq = histogramSeq(in);
    EXPECT_EQ(histogramPar(in, 4), seq);
    // Conservation: every pixel lands in one bin.
    uint64_t total = 0;
    for (auto c : seq.r)
        total += c;
    EXPECT_EQ(total, in.pixels.size() / 3);
}

TEST(PhoenixCpu, LinRegSeqParEquivalentAndSensible)
{
    auto in = genLinRegInput(200000, 6);
    auto seq = linRegSeq(in);
    EXPECT_EQ(linRegPar(in, 4), seq);
    // Generator correlates y ~ x/2 + noise: slope near 0.5.
    EXPECT_NEAR(seq.b, 0.5, 0.1);
}

TEST(PhoenixCpu, MatmulSeqParEquivalent)
{
    size_t m = 37, n = 29, k = 41;
    auto a = genMatrix(m, k, 7);
    auto b = genMatrix(k, n, 8);
    auto seq = matmulSeq(a, b, m, n, k);
    EXPECT_EQ(matmulPar(a, b, m, n, k, 4), seq);
    // Spot-check one entry against a scalar loop.
    int32_t c00 = 0;
    for (size_t kk = 0; kk < k; ++kk)
        c00 += static_cast<int32_t>(a[kk]) * b[kk * n];
    EXPECT_EQ(seq[0], c00);
}

TEST(PhoenixCpu, KmeansConvergesAndPartitions)
{
    auto in = genKmeansInput(2000, 4, 8, 9);
    auto res = kmeansSeq(in, 50);
    EXPECT_LE(res.iterations, 50u);
    EXPECT_EQ(res.assignment.size(), in.numPoints);
    for (auto a : res.assignment)
        EXPECT_LT(a, in.k);
    // Parallel assignment phase gives the same result.
    auto par = kmeansPar(in, 50, 4);
    EXPECT_EQ(par.assignment, res.assignment);
    EXPECT_EQ(par.iterations, res.iterations);
}

TEST(PhoenixCpu, ReverseIndexCoversAllLinks)
{
    auto in = genRevIndexInput(200, 10, 50, 10);
    auto idx = reverseIndexSeq(in);
    // Every link that occurs in a doc is indexed with that doc.
    for (uint32_t doc = 0; doc < in.docLinks.size(); ++doc) {
        for (uint32_t link : in.docLinks[doc]) {
            const auto &lst = idx.at(link);
            EXPECT_TRUE(std::find(lst.begin(), lst.end(), doc) !=
                        lst.end());
        }
    }
}

TEST(PhoenixCpu, StringMatchSeqParEquivalent)
{
    auto in = genStringMatchInput(100000, 11);
    auto seq = stringMatchSeq(in);
    EXPECT_EQ(stringMatchPar(in, 4), seq);
    // The generator's Zipf bias makes low-id keys frequent.
    EXPECT_GT(seq[0], 0u);
}

TEST(PhoenixCpu, WordCountSeqParEquivalent)
{
    auto in = genWordCountInput(50000, 12);
    auto seq = wordCountSeq(in, 20);
    EXPECT_EQ(wordCountPar(in, 20, 4), seq);
    ASSERT_FALSE(seq.empty());
    // Counts are sorted descending.
    for (size_t i = 1; i < seq.size(); ++i)
        EXPECT_GE(seq[i - 1].count, seq[i].count);
    // Total of top counts cannot exceed the word count.
    uint64_t total = 0;
    for (const auto &e : seq)
        total += e.count;
    EXPECT_LE(total, in.words.size());
}

TEST(TimingModels, Fig13AggregatesReproduce)
{
    // Against the paper's measured APU latencies (Table 7), the
    // calibrated CPU model must reproduce Fig. 13's aggregates.
    const double apu_ms[] = {1644.8, 92.3, 421.3, 1.6,
                             182.0, 90.9, 3.2};
    XeonTimingModel cpu;
    std::vector<double> s1, smt;
    size_t i = 0;
    for (const auto &spec : phoenixSpecs()) {
        s1.push_back(cpu.phoenixMs(spec.app, false) / apu_ms[i]);
        smt.push_back(cpu.phoenixMs(spec.app, true) / apu_ms[i]);
        ++i;
    }
    EXPECT_NEAR(mean(s1), 41.8, 0.5);
    EXPECT_NEAR(geomean(s1), 14.4, 0.5);
    EXPECT_NEAR(maxOf(s1), 128.3, 0.5);
    EXPECT_NEAR(mean(smt), 12.5, 0.5);
    EXPECT_NEAR(geomean(smt), 2.6, 0.15);
    EXPECT_NEAR(maxOf(smt), 68.1, 0.5);
}

TEST(TimingModels, WinLossPatternMatchesPaper)
{
    // Section 5.2.1: the APU outperforms the 16-thread CPU on
    // linear regression, k-means, string match, word count only.
    const double apu_ms[] = {1644.8, 92.3, 421.3, 1.6,
                             182.0, 90.9, 3.2};
    const bool wins[] = {false, true, false, true,
                         false, true, true};
    XeonTimingModel cpu;
    size_t i = 0;
    for (const auto &spec : phoenixSpecs()) {
        bool apu_wins =
            cpu.phoenixMs(spec.app, true) > apu_ms[i];
        EXPECT_EQ(apu_wins, wins[i]) << spec.name;
        ++i;
    }
}

TEST(TimingModels, EnnsCalibrationPoints)
{
    XeonTimingModel cpu;
    EXPECT_NEAR(cpu.ennsRetrievalMs(120.0e6), 24.6, 0.1);
    EXPECT_NEAR(cpu.ennsRetrievalMs(600.0e6), 98.9, 0.1);
    EXPECT_NEAR(cpu.ennsRetrievalMs(2400.0e6), 555.7, 0.1);
    // Monotone in between and extrapolates beyond.
    EXPECT_GT(cpu.ennsRetrievalMs(1200.0e6),
              cpu.ennsRetrievalMs(600.0e6));
    EXPECT_GT(cpu.ennsRetrievalMs(4800.0e6),
              cpu.ennsRetrievalMs(2400.0e6));
}

TEST(TimingModels, GpuRetrievalBandwidthBound)
{
    GpuTimingModel gpu;
    double t10 = gpu.ennsRetrievalSeconds(120.0e6);
    double t200 = gpu.ennsRetrievalSeconds(2400.0e6);
    EXPECT_GT(t200, t10);
    // Both far below CPU latencies at the same sizes.
    XeonTimingModel cpu;
    EXPECT_LT(t200 * 1e3, cpu.ennsRetrievalMs(2400.0e6));
}

TEST(TimingModels, LlmTtftNearHalfSecond)
{
    // Fig. 14's retrieval shares imply a ~545 ms generation TTFT.
    LlmGenerationModel llm;
    EXPECT_NEAR(llm.ttftSeconds(), 0.545, 0.03);
}
