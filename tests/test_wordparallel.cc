/**
 * @file
 * Equivalence gates for the word-parallel evaluation paths: the
 * bit-processor array's word-parallel op bodies against the retained
 * per-bit scalar reference (randomized op-sequence sweep over all
 * latch sources, boolean ops, and slice masks, on word-aligned and
 * ragged bank geometries), the VrFile multi-plane extract/insert fast
 * paths, replayed microcode plans against direct emission, the fused
 * retrieval MAC against the unfused op triple (VR state and
 * CycleStats identical), the single-pass associative max/min against
 * brute force, the memoized DRAM range-trace cache (timing, counter,
 * and fault-draw identity between cold and warm calls), the serving
 * admission boundary contracts of DESIGN.md section 7, and the
 * histogram quantile bucket-boundary pin.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "apusim/apu.hh"
#include "apusim/bitproc.hh"
#include "apusim/vr_file.hh"
#include "baseline/workloads.hh"
#include "common/gsifloat.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "dramsim/dram_sim.hh"
#include "fault/fault.hh"
#include "gvml/gvml.hh"
#include "gvml/microcode.hh"
#include "kernels/bmm.hh"
#include "kernels/serving.hh"

using namespace cisram;
using namespace cisram::apu;
using namespace cisram::gvml;

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

constexpr LatchSrc kLatchSrcs[] = {
    LatchSrc::RL,   LatchSrc::GHL,  LatchSrc::GVL, LatchSrc::RL_N,
    LatchSrc::RL_S, LatchSrc::RL_E, LatchSrc::RL_W};

constexpr BoolOp kBoolOps[] = {BoolOp::And, BoolOp::Or, BoolOp::Xor};

/**
 * Two identically seeded engines — one on the word-parallel fast
 * path, one routed through the retained scalar reference — driven
 * with the same op sequence and compared state-for-state.
 */
struct BpPair
{
    BpPair(unsigned nvr, size_t len, unsigned banks, uint64_t seed)
        : vrsWord(nvr, len, banks), vrsScalar(nvr, len, banks),
          word(vrsWord), scalar(vrsScalar)
    {
        scalar.setScalarReference(true);
        Rng rng(seed);
        for (unsigned vr = 0; vr < nvr; ++vr)
            for (size_t i = 0; i < len; ++i) {
                uint16_t v = rng.nextU16();
                vrsWord[vr][i] = v;
                vrsScalar[vr][i] = v;
            }
    }

    void
    expectIdentical(const char *where) const
    {
        ASSERT_EQ(word.uopCount(), scalar.uopCount()) << where;
        for (unsigned s = 0; s < 16; ++s)
            ASSERT_TRUE(word.rlPlane(s) == scalar.rlPlane(s))
                << where << ": RL slice " << s;
        for (unsigned b = 0; b < vrsWord.numBanks(); ++b)
            for (unsigned s = 0; s < 16; ++s)
                ASSERT_EQ(word.ghlBit(b, s), scalar.ghlBit(b, s))
                    << where << ": GHL bank " << b << " slice " << s;
        ASSERT_TRUE(word.gvl() == scalar.gvl()) << where << ": GVL";
        for (unsigned vr = 0; vr < vrsWord.numVrs(); ++vr)
            for (size_t i = 0; i < vrsWord.length(); ++i)
                ASSERT_EQ(vrsWord[vr][i], vrsScalar[vr][i])
                    << where << ": VR " << vr << " elem " << i;
    }

    VrFile vrsWord;
    VrFile vrsScalar;
    BitProcArray word;
    BitProcArray scalar;
};

/**
 * Drive both engines of `p` through `steps` random micro-ops drawn
 * from the full Table 2 surface: every op kind, every latch source
 * (including the bank-edge E/W shifts), every boolean op, and a mix
 * of full, single-slice, and random slice masks.
 */
void
runRandomOps(BpPair &p, uint64_t seed, int steps)
{
    Rng rng(seed);
    auto mask = [&]() -> uint16_t {
        switch (rng.nextU16() % 3) {
          case 0:
            return BitProcArray::fullMask;
          case 1:
            return static_cast<uint16_t>(1u << (rng.nextU16() % 16));
          default: {
            uint16_t m = rng.nextU16();
            return m ? m : BitProcArray::fullMask;
          }
        }
    };
    auto vr = [&] { return rng.nextU16() % p.vrsWord.numVrs(); };
    auto src = [&] { return kLatchSrcs[rng.nextU16() % 7]; };
    auto bop = [&] { return kBoolOps[rng.nextU16() % 3]; };

    for (int step = 0; step < steps; ++step) {
        switch (rng.nextU16() % 11) {
          case 0: {
            uint16_t m = mask();
            unsigned v = vr();
            p.word.rlFromVr(m, v);
            p.scalar.rlFromVr(m, v);
            break;
          }
          case 1: {
            uint16_t m = mask();
            unsigned v0 = vr(), v1 = vr();
            p.word.rlFromVrAndVr(m, v0, v1);
            p.scalar.rlFromVrAndVr(m, v0, v1);
            break;
          }
          case 2: {
            uint16_t m = mask();
            LatchSrc s = src();
            p.word.rlFromLatch(m, s);
            p.scalar.rlFromLatch(m, s);
            break;
          }
          case 3: {
            uint16_t m = mask();
            unsigned v = vr();
            BoolOp o = bop();
            LatchSrc s = src();
            p.word.rlFromVrOpLatch(m, v, o, s);
            p.scalar.rlFromVrOpLatch(m, v, o, s);
            break;
          }
          case 4: {
            uint16_t m = mask();
            BoolOp o = bop();
            unsigned v = vr();
            p.word.rlOpVr(m, o, v);
            p.scalar.rlOpVr(m, o, v);
            break;
          }
          case 5: {
            uint16_t m = mask();
            BoolOp o = bop();
            LatchSrc s = src();
            p.word.rlOpLatch(m, o, s);
            p.scalar.rlOpLatch(m, o, s);
            break;
          }
          case 6: {
            uint16_t m = mask();
            BoolOp o = bop(), o2 = bop();
            unsigned v = vr();
            LatchSrc s = src();
            p.word.rlOpVrOpLatch(m, o, v, o2, s);
            p.scalar.rlOpVrOpLatch(m, o, v, o2, s);
            break;
          }
          case 7: {
            uint16_t m = mask();
            unsigned v = vr();
            bool neg = (rng.nextU16() & 1) != 0;
            p.word.writeVrFromRl(m, v, neg);
            p.scalar.writeVrFromRl(m, v, neg);
            break;
          }
          case 8: {
            uint16_t m = mask();
            bool val = (rng.nextU16() & 1) != 0;
            p.word.rlFromImmediate(m, val);
            p.scalar.rlFromImmediate(m, val);
            break;
          }
          case 9: {
            uint16_t m = mask();
            p.word.loadGhlFromRl(m);
            p.scalar.loadGhlFromRl(m);
            break;
          }
          default: {
            uint16_t m = mask();
            p.word.loadGvlFromRl(m);
            p.scalar.loadGvlFromRl(m);
            break;
          }
        }
        if (step % 16 == 0)
            p.expectIdentical("mid-sequence");
        if (::testing::Test::HasFatalFailure())
            return;
    }
    p.expectIdentical("final");
}

} // namespace

// ---- BitProcArray: word path == scalar reference ------------------------

TEST(WordParallelBitProc, RandomOpsWordAligned)
{
    // 256 elems / 4 banks: 64 columns per bank, bank edges exactly
    // on 64-bit word boundaries.
    BpPair p(8, 256, 4, /*seed=*/101);
    runRandomOps(p, 202, 400);
}

TEST(WordParallelBitProc, RandomOpsRaggedMidWordBanks)
{
    // 100 elems / 4 banks: 25 columns per bank — every bank edge
    // falls mid-word and the plane has a 36-bit ragged tail word.
    BpPair p(8, 100, 4, 303);
    runRandomOps(p, 404, 400);
}

TEST(WordParallelBitProc, RandomOpsBankSpanningWords)
{
    // 130 elems / 2 banks: 65 columns per bank — banks span a word
    // boundary, exercising cross-word E/W shift carries.
    BpPair p(8, 130, 2, 505);
    runRandomOps(p, 606, 400);
}

TEST(WordParallelBitProc, AllSingleSliceMasksAllLatchSrcs)
{
    // Directed sweep: every single-slice mask crossed with every
    // latch source, on the ragged geometry.
    BpPair p(8, 100, 4, 707);
    for (unsigned s = 0; s < 16; ++s) {
        uint16_t m = static_cast<uint16_t>(1u << s);
        p.word.rlFromVr(m, s % 8);
        p.scalar.rlFromVr(m, s % 8);
        p.word.loadGhlFromRl(m);
        p.scalar.loadGhlFromRl(m);
        p.word.loadGvlFromRl(m);
        p.scalar.loadGvlFromRl(m);
        for (LatchSrc src : kLatchSrcs) {
            p.word.rlOpLatch(m, BoolOp::Or, src);
            p.scalar.rlOpLatch(m, BoolOp::Or, src);
        }
        p.word.writeVrFromRl(m, (s + 1) % 8, s % 2 == 0);
        p.scalar.writeVrFromRl(m, (s + 1) % 8, s % 2 == 0);
        p.expectIdentical("slice sweep");
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(WordParallelBitProc, GhlBroadcastRaggedTail)
{
    // GHL semantics on a ragged geometry: a single set column in
    // bank 2 must broadcast to exactly bank 2's 25 columns (50..74)
    // and nowhere else — the word-granular broadcast must not bleed
    // across the mid-word bank edges.
    VrFile vrs(8, 100, 4);
    BitProcArray bp(vrs);
    vrs[0][60] = 0x0001; // slice 0, bank 2 only
    bp.rlFromVr(1, 0);
    bp.loadGhlFromRl(1);
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_EQ(bp.ghlBit(b, 0), b == 2) << "bank " << b;
    bp.rlFromLatch(1, LatchSrc::GHL);
    const BitVector &rl = bp.rlPlane(0);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(rl.get(i), i >= 50 && i < 75) << "col " << i;
}

TEST(WordParallelBitProc, BankEdgeShiftsZeroFill)
{
    // E/W neighbour reads must zero-fill at every bank's edge
    // columns, including mid-word edges (cols 0/25/50/75 for W,
    // 24/49/74/99 for E).
    VrFile vrs(8, 100, 4);
    BitProcArray bp(vrs);
    for (size_t i = 0; i < 100; ++i)
        vrs[0][i] = 0x0001;
    bp.rlFromVr(1, 0);
    bp.rlFromLatch(1, LatchSrc::RL_W);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(bp.rlPlane(0).get(i), i % 25 != 0) << "W col " << i;
    bp.rlFromVr(1, 0);
    bp.rlFromLatch(1, LatchSrc::RL_E);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(bp.rlPlane(0).get(i), i % 25 != 24)
            << "E col " << i;
}

TEST(WordParallelBitProcDeath, NonDividingLengthRefused)
{
    // The word-parallel bank-edge masks rely on every bank owning a
    // full complement of columns; a non-dividing length must be
    // refused at construction, not silently mis-masked.
    EXPECT_DEATH(VrFile(8, 101, 4), "");
}

// ---- VrFile: multi-plane fast paths == per-slice reference --------------

TEST(WordParallelVrFile, SlicePlanesMatchPerSliceExtraction)
{
    for (size_t len : {256u, 100u, 130u}) {
        VrFile vrs(4, len, 2);
        Rng rng(42 + len);
        for (auto &v : vrs[1])
            v = rng.nextU16();
        for (uint16_t mask :
             {uint16_t{0xffff}, uint16_t{0x0001}, uint16_t{0x8000},
              uint16_t{0x5a5a}, uint16_t{0x0300}}) {
            std::array<BitVector, 16> fast;
            for (auto &p : fast)
                p = BitVector(len);
            vrs.slicePlanes(1, mask, fast);
            for (unsigned s = 0; s < 16; ++s) {
                if (!(mask & (1u << s)))
                    continue;
                ASSERT_TRUE(fast[s] == vrs.slicePlane(1, s))
                    << "len " << len << " mask " << mask
                    << " slice " << s;
            }
        }
    }
}

TEST(WordParallelVrFile, SlicePlanesAndMatchesPlaneAnd)
{
    VrFile vrs(4, 130, 2);
    Rng rng(77);
    for (auto &v : vrs[0])
        v = rng.nextU16();
    for (auto &v : vrs[1])
        v = rng.nextU16();
    std::array<BitVector, 16> fused;
    for (auto &p : fused)
        p = BitVector(vrs.length());
    vrs.slicePlanesAnd(0, 1, 0xffff, fused);
    for (unsigned s = 0; s < 16; ++s) {
        BitVector ref = vrs.slicePlane(0, s);
        ref &= vrs.slicePlane(1, s);
        ASSERT_TRUE(fused[s] == ref) << "slice " << s;
    }
}

TEST(WordParallelVrFile, SetSlicePlanesMatchesPerSliceInsertion)
{
    for (bool negate : {false, true}) {
        VrFile fast(4, 100, 4), ref(4, 100, 4);
        Rng rng(negate ? 88 : 99);
        for (size_t i = 0; i < 100; ++i) {
            uint16_t v = rng.nextU16();
            fast[2][i] = v;
            ref[2][i] = v;
        }
        std::array<BitVector, 16> planes;
        for (auto &p : planes) {
            p = BitVector(100);
            for (size_t i = 0; i < 100; ++i)
                p.set(i, (rng.nextU16() & 1) != 0);
        }
        const uint16_t mask = 0x7e81; // mixed set/clear slices
        fast.setSlicePlanes(2, mask, planes, negate);
        for (unsigned s = 0; s < 16; ++s) {
            if (!(mask & (1u << s)))
                continue;
            BitVector p = planes[s];
            if (negate)
                p.invert();
            ref.setSlicePlane(2, s, p);
        }
        for (size_t i = 0; i < 100; ++i)
            ASSERT_EQ(fast[2][i], ref[2][i])
                << "negate " << negate << " elem " << i;
    }
}

// ---- Microcode plan cache: replay == direct emission --------------------

namespace {

struct McFixture
{
    McFixture() : vrs(8, 512, 4), bp(vrs) {}

    void
    randomize(unsigned vr, uint64_t seed)
    {
        Rng rng(seed);
        for (auto &v : vrs[vr])
            v = rng.nextU16();
    }

    VrFile vrs;
    BitProcArray bp;
};

} // namespace

TEST(McPlanCache, ReplayedPlansAreBitIdentical)
{
    mcPlanCacheClear();
    auto stats0 = mcPlanCacheStats();
    EXPECT_EQ(stats0.hits, 0u);
    EXPECT_EQ(stats0.misses, 0u);

    // Cold run records each plan; a second identically seeded
    // fixture replays it. VR state and uop counts must match
    // exactly, for every routine.
    struct Case
    {
        const char *name;
        uint64_t (*run)(BitProcArray &);
    };
    const Case cases[] = {
        {"add", [](BitProcArray &bp) {
             return mcAddU16(bp, 2, 0, 1, 5, 6, 7);
         }},
        {"xor", [](BitProcArray &bp) {
             return mcXor16(bp, 3, 0, 1, 5);
         }},
        {"allbits", [](BitProcArray &bp) {
             return mcAllBitsSet(bp, 4, 0);
         }},
        {"sub", [](BitProcArray &bp) {
             return mcSubU16(bp, 2, 0, 1, 4, 5, 6, 7);
         }},
        {"mul", [](BitProcArray &bp) {
             return mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7);
         }},
    };
    uint64_t expectedMisses = 0;
    for (const auto &c : cases) {
        McFixture cold, warm;
        for (unsigned vr : {0u, 1u}) {
            cold.randomize(vr, 1000 + vr);
            warm.randomize(vr, 1000 + vr);
        }
        uint64_t uopsCold = c.run(cold.bp);
        // mcMulU16's emitter inlines the adder, so one plan covers
        // the whole routine: exactly one miss per distinct key.
        ++expectedMisses;
        uint64_t uopsWarm = c.run(warm.bp);
        EXPECT_EQ(uopsCold, uopsWarm) << c.name;
        EXPECT_EQ(cold.bp.uopCount(), warm.bp.uopCount()) << c.name;
        for (unsigned vr = 0; vr < 8; ++vr)
            for (size_t i = 0; i < cold.vrs.length(); ++i)
                ASSERT_EQ(cold.vrs[vr][i], warm.vrs[vr][i])
                    << c.name << " VR " << vr << " elem " << i;
    }
    auto stats1 = mcPlanCacheStats();
    EXPECT_EQ(stats1.misses, expectedMisses);
    EXPECT_EQ(stats1.hits, expectedMisses);
}

TEST(McPlanCache, DistinctArgsGetDistinctPlans)
{
    mcPlanCacheClear();
    McFixture f;
    f.randomize(0, 7);
    f.randomize(1, 8);
    mcAddU16(f.bp, 2, 0, 1, 5, 6, 7);
    mcAddU16(f.bp, 3, 0, 1, 5, 6, 7); // different dst -> new plan
    auto stats = mcPlanCacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    // Both plans still compute a + b.
    for (size_t i = 0; i < f.vrs.length(); ++i) {
        uint16_t want =
            static_cast<uint16_t>(f.vrs[0][i] + f.vrs[1][i]);
        ASSERT_EQ(f.vrs[2][i], want) << i;
        ASSERT_EQ(f.vrs[3][i], want) << i;
    }
}

// ---- Associative max/min: single-pass scan == brute force ---------------

TEST(WordParallelReduce, MaxMinIndexMatchBruteForce)
{
    ApuDevice dev;
    Gvml g(dev.core(0));
    auto &v = g.data(Vr(1));
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        for (auto &e : v)
            e = rng.nextU16() & 0x0fff; // force duplicate extrema
        auto mx = g.maxIndexU16(Vr(1));
        auto mn = g.minIndexU16(Vr(1));
        uint16_t wantMax = v[0], wantMin = v[0];
        size_t wantMaxIdx = 0, wantMinIdx = 0;
        for (size_t i = 1; i < v.size(); ++i) {
            if (v[i] > wantMax) {
                wantMax = v[i];
                wantMaxIdx = i;
            }
            if (v[i] < wantMin) {
                wantMin = v[i];
                wantMinIdx = i;
            }
        }
        EXPECT_EQ(mx.value, wantMax) << "seed " << seed;
        EXPECT_EQ(mx.index, wantMaxIdx) << "seed " << seed;
        EXPECT_EQ(mn.value, wantMin) << "seed " << seed;
        EXPECT_EQ(mn.index, wantMinIdx) << "seed " << seed;
    }
    // All-equal vector: first index wins.
    std::fill(v.begin(), v.end(), uint16_t{0x1234});
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 0u);
    EXPECT_EQ(g.minIndexU16(Vr(1)).index, 0u);
}

TEST(WordParallelReduce, MaxIndexChargeIsDataIndependent)
{
    // The associative search always walks all 16 bit planes; the
    // single-pass functional scan must charge exactly the same
    // cycles whatever the data.
    ApuDevice dev;
    auto run = [&](unsigned core, uint16_t fill) {
        Gvml g(dev.core(core));
        auto &v = g.data(Vr(1));
        std::fill(v.begin(), v.end(), fill);
        double before = dev.core(core).stats().cycles();
        g.maxIndexU16(Vr(1));
        return dev.core(core).stats().cycles() - before;
    };
    double a = run(0, 0x0000);
    double b = run(1, 0xffff);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

// ---- Fused MAC: one pass == the unfused op triple -----------------------

namespace {

/** Copy core 0's VR contents onto core `dst` of the same device. */
void
mirrorVrs(ApuDevice &dev, unsigned dst)
{
    for (unsigned vr = 0; vr < dev.core(0).vr().numVrs(); ++vr)
        dev.core(dst).vr()[vr] = dev.core(0).vr()[vr];
}

} // namespace

TEST(FusedMac, S16MatchesUnfusedTriple)
{
    for (ExecMode mode :
         {ExecMode::Functional, ExecMode::TimingOnly}) {
        ApuDevice dev;
        dev.core(0).setMode(mode);
        dev.core(1).setMode(mode);
        Gvml fused(dev.core(0));
        Gvml plain(dev.core(1));
        Rng rng(314);
        for (unsigned vr : {0u, 8u, 9u, 10u})
            for (auto &e : fused.data(Vr(vr)))
                e = rng.nextU16();
        mirrorVrs(dev, 1);

        const Vr emb{0}, q{1}, t{2};
        const Vr accs[3] = {Vr(8), Vr(9), Vr(10)};
        const uint16_t imms[3] = {0x0003, 0xfffe, 0x7f01};

        double c0 = dev.core(0).stats().cycles();
        double u0 = dev.core(0).stats().uops();
        fused.macImmS16(emb, q, t, accs, imms, 3);
        double fusedCycles = dev.core(0).stats().cycles() - c0;
        double fusedUops = dev.core(0).stats().uops() - u0;

        double c1 = dev.core(1).stats().cycles();
        double u1 = dev.core(1).stats().uops();
        for (size_t i = 0; i < 3; ++i) {
            plain.cpyImm16(q, imms[i]);
            plain.mulS16(t, emb, q);
            plain.addS16(accs[i], accs[i], t);
        }
        double plainCycles = dev.core(1).stats().cycles() - c1;
        double plainUops = dev.core(1).stats().uops() - u1;

        EXPECT_DOUBLE_EQ(fusedCycles, plainCycles)
            << "mode " << static_cast<int>(mode);
        EXPECT_DOUBLE_EQ(fusedUops, plainUops)
            << "mode " << static_cast<int>(mode);
        for (unsigned vr = 0; vr < dev.core(0).vr().numVrs(); ++vr)
            ASSERT_EQ(fused.data(Vr(vr)), plain.data(Vr(vr)))
                << "mode " << static_cast<int>(mode) << " VR " << vr;
    }
}

TEST(FusedMac, Gf16MatchesUnfusedTriple)
{
    ApuDevice dev;
    Gvml fused(dev.core(0));
    Gvml plain(dev.core(1));
    Rng rng(2718);
    for (unsigned vr : {0u, 8u})
        for (auto &e : fused.data(Vr(vr)))
            e = rng.nextU16();
    mirrorVrs(dev, 1);

    const Vr emb{0}, q{1}, t{2}, acc{8};
    const uint16_t imm =
        GsiFloat16::fromFloat(-1.75f).bits();

    double c0 = dev.core(0).stats().cycles();
    fused.macImmGf16(emb, q, t, acc, imm);
    double fusedCycles = dev.core(0).stats().cycles() - c0;

    double c1 = dev.core(1).stats().cycles();
    plain.cpyImm16(q, imm);
    plain.mulGf16(t, emb, q);
    plain.addGf16(acc, acc, t);
    double plainCycles = dev.core(1).stats().cycles() - c1;

    EXPECT_DOUBLE_EQ(fusedCycles, plainCycles);
    for (unsigned vr = 0; vr < dev.core(0).vr().numVrs(); ++vr)
        ASSERT_EQ(fused.data(Vr(vr)), plain.data(Vr(vr)))
            << "VR " << vr;
}

// ---- DRAM range-trace cache: warm replay == cold simulation -------------

TEST(DramTraceCache, WarmCallsReplayIdenticalTiming)
{
    // Same call on the same system, then on a fresh system (the
    // cache is process-global): seconds, bandwidth, and counter
    // deltas must all be identical to the first simulation.
    const uint64_t base = 0x1720000, bytes = 3 << 19;
    dram::DramSystem a(dram::hbm2eConfig());
    double t1 = a.streamReadSeconds(base, bytes);
    dram::DramStats d1 = a.stats();
    double bw1 = a.lastEffectiveBandwidth();
    EXPECT_GT(t1, 0.0);

    double t2 = a.streamReadSeconds(base, bytes);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(a.stats().reads, 2 * d1.reads);
    EXPECT_EQ(a.stats().activates, 2 * d1.activates);
    EXPECT_EQ(a.stats().rowHits, 2 * d1.rowHits);
    EXPECT_EQ(a.stats().refreshes, 2 * d1.refreshes);
    EXPECT_EQ(a.lastEffectiveBandwidth(), bw1);

    dram::DramSystem b(dram::hbm2eConfig());
    EXPECT_EQ(b.streamReadSeconds(base, bytes), t1);
    EXPECT_EQ(b.stats().reads, d1.reads);
    EXPECT_EQ(b.stats().rowMisses, d1.rowMisses);
    EXPECT_EQ(b.lastEffectiveBandwidth(), bw1);

    // Writes and strided gathers replay the same way.
    double w1 = a.streamWriteSeconds(base, bytes);
    EXPECT_EQ(a.streamWriteSeconds(base, bytes), w1);
    double s1 = a.stridedReadSeconds(base, 256, 4096, 512);
    EXPECT_EQ(a.stridedReadSeconds(base, 256, 4096, 512), s1);
}

TEST(DramTraceCache, DistinctGeometriesDistinctTimings)
{
    dram::DramSystem sys(dram::hbm2eConfig());
    double t64k = sys.streamReadSeconds(0, 64 * 1024);
    double t128k = sys.streamReadSeconds(0, 128 * 1024);
    EXPECT_GT(t128k, t64k);
    double strided = sys.stridedReadSeconds(0, 256, 8192, 256);
    double dense = sys.streamReadSeconds(0, 256 * 256);
    EXPECT_NE(strided, dense);
}

TEST(DramTraceCache, WarmCallsStillAdvanceFaultState)
{
    // dram_flip:p=1 flips every read burst deterministically, so the
    // ECC ledger's progression is a pure function of the request
    // sequence: first pass corrects one single per burst, second
    // pass over the now-latent codewords detects one uncorrectable
    // double per burst. The second pass is a guaranteed timing-cache
    // hit — if a hit skipped fault injection, the doubles would
    // vanish.
    PlanGuard plan("dram_flip:p=1;seed:5");
    dram::DramSystem sys(dram::hbm2eConfig());
    const uint64_t bytes = 64 * 1024;
    const uint64_t bursts = bytes / sys.config().burstBytes();
    const uint64_t words = sys.config().burstBytes() / 8;

    sys.streamReadSeconds(0, bytes);
    EXPECT_EQ(sys.eccStats().wordsChecked, bursts * words);
    EXPECT_EQ(sys.eccStats().singleCorrected, bursts);
    EXPECT_EQ(sys.eccStats().doubleDetected, 0u);
    EXPECT_EQ(sys.latentSingles(), bursts);
    EXPECT_TRUE(sys.takeFaultStatus().ok());

    sys.streamReadSeconds(0, bytes); // warm in the global cache
    EXPECT_EQ(sys.eccStats().wordsChecked, 2 * bursts * words);
    EXPECT_EQ(sys.eccStats().singleCorrected, bursts);
    EXPECT_EQ(sys.eccStats().doubleDetected, bursts);
    EXPECT_EQ(sys.latentSingles(), 0u);
    EXPECT_FALSE(sys.takeFaultStatus().ok());
}

// ---- Serving admission boundaries (DESIGN.md section 7) -----------------

namespace {

using baseline::genQuery;
using baseline::ragCorpora;
using kernels::BatchPolicy;
using kernels::DeviceServer;
using kernels::ServerConfig;

} // namespace

TEST(ServingAdmissionBoundary, DepthCapShedsAtExactlyTheCap)
{
    const auto &spec = ragCorpora()[0];
    ApuDevice dev;
    ServerConfig cfg;
    cfg.batch = BatchPolicy{4, 100};
    cfg.admission.maxQueueDepth = 3;
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);
    // depth 0, 1, 2 admit (filling to the cap)...
    for (uint64_t q = 0; q < 3; ++q)
        EXPECT_TRUE(
            server.enqueue(q, genQuery(spec.dim, 10 + q)).ok())
            << "q " << q;
    // ...and the admission that would exceed it is shed, loudly.
    Status st = server.enqueue(3, genQuery(spec.dim, 13));
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    server.drain();
}

TEST(ServingAdmissionBoundary, PredictedDelayUsesCeilOfQueuedBatches)
{
    const auto &spec = ragCorpora()[0];
    BatchPolicy batching{2, 100};

    // Measure one batch's deterministic service time (which seeds
    // the EWMA) on an unconstrained server.
    double ewma = 0;
    {
        ApuDevice dev;
        ServerConfig cfg;
        cfg.batch = batching;
        DeviceServer probe(dev, spec, 0, nullptr, 1, cfg);
        ASSERT_TRUE(probe.enqueue(0, genQuery(spec.dim, 50)).ok());
        ASSERT_TRUE(probe.enqueue(1, genQuery(spec.dim, 51)).ok());
        auto outs = probe.pump();
        ASSERT_EQ(outs.size(), 2u);
        ewma = outs[0].hostSeconds + outs[0].retrievalSeconds;
        probe.drain();
    }
    ASSERT_GT(ewma, 0.0);

    // Budget below one batch time: an *idle* server (depth 0, zero
    // queued batches, so zero predicted wait) must still admit. The
    // pre-fix floor(depth/maxBatch)+1 form predicted a full batch of
    // wait at depth 0 and shed here. With one query queued, the
    // predicted wait is one EWMA and the budget is exceeded: shed.
    {
        ApuDevice dev;
        ServerConfig cfg;
        cfg.batch = batching;
        cfg.admission.maxQueueDelaySeconds = 0.5 * ewma;
        DeviceServer server(dev, spec, 0, nullptr, 1, cfg);
        ASSERT_TRUE(server.enqueue(0, genQuery(spec.dim, 50)).ok());
        ASSERT_TRUE(server.enqueue(1, genQuery(spec.dim, 51)).ok());
        ASSERT_EQ(server.pump().size(), 2u); // EWMA now = ewma
        EXPECT_TRUE(server.enqueue(2, genQuery(spec.dim, 52)).ok())
            << "idle server must admit: zero batches queued";
        Status st = server.enqueue(3, genQuery(spec.dim, 53));
        EXPECT_FALSE(st.ok())
            << "one queued query = one predicted batch over budget";
        EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
        server.drain();
    }

    // Budget of 1.5 batch times: a depth exactly equal to maxBatch
    // is still ceil(2/2) = 1 queued batch (one EWMA, under budget).
    // The pre-fix form counted floor(2/2)+1 = 2 batches and shed at
    // this exact-multiple boundary. Depth 3 genuinely needs two
    // batches and is over budget.
    {
        ApuDevice dev;
        ServerConfig cfg;
        cfg.batch = batching;
        cfg.admission.maxQueueDelaySeconds = 1.5 * ewma;
        DeviceServer server(dev, spec, 0, nullptr, 1, cfg);
        ASSERT_TRUE(server.enqueue(0, genQuery(spec.dim, 50)).ok());
        ASSERT_TRUE(server.enqueue(1, genQuery(spec.dim, 51)).ok());
        ASSERT_EQ(server.pump().size(), 2u); // EWMA now = ewma
        for (uint64_t q = 2; q < 4; ++q)
            ASSERT_TRUE(
                server.enqueue(q, genQuery(spec.dim, 50 + q)).ok())
                << "q " << q;
        EXPECT_TRUE(server.enqueue(4, genQuery(spec.dim, 54)).ok())
            << "depth == maxBatch is one queued batch, not two";
        Status st = server.enqueue(5, genQuery(spec.dim, 55));
        EXPECT_FALSE(st.ok()) << "depth 3 = two queued batches";
        server.drain();
    }
}

// ---- Histogram quantile: exact bucket-boundary pin ----------------------

TEST(HistogramQuantileBoundary, ExactBoundaryBelongsToLowerBucket)
{
    // Two samples in the [1, 2) bucket, two in [4, 8). q = 0.5 puts
    // the target exactly on the lower bucket's cumulative count:
    // the quantile must resolve inside the *lower* bucket with
    // interpolation fraction 1 — its upper edge, 2.0 — never a value
    // from the next occupied bucket's [4, 6] range.
    metrics::Histogram h;
    h.observe(1.5);
    h.observe(1.5);
    h.observe(6.0);
    h.observe(6.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    // Infinitesimally past the boundary the quantile jumps into the
    // next bucket (clamped below by its 4.0 lower edge).
    EXPECT_GE(h.quantile(0.500001), 4.0);
    // Interior interpolation still works on both sides.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.75);
    EXPECT_EQ(h.quantile(1.0), 6.0);
    EXPECT_EQ(h.quantile(0.0), 1.5);
}

TEST(HistogramQuantileBoundary, BoundaryClampsToObservedMax)
{
    // When the lower bucket's upper edge exceeds the observed max,
    // the boundary quantile clamps to the max rather than inventing
    // a value never observed.
    metrics::Histogram h;
    h.observe(1.25);
    h.observe(1.25); // max = 1.25 < bucket edge 2.0
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.25);
}

// ---- CycleStats identity on the Fig. 12 BMM inputs ---------------------

TEST(WordParallelCycles, BmmFunctionalMatchesTimingOnlyOnFig12Inputs)
{
    // Vectorizing functional evaluation may not move a single
    // modeled cycle: on the bench_fig12_bmm_breakdown shape, a full
    // functional run (word-parallel paths engaged) must charge
    // exactly the per-stage cycles and uops the timing-only run
    // charges (fig12 itself runs TimingOnly).
    const core::BmmShape shape{1024, 1024, 1024};
    for (auto v : {core::BmmVariant::Opt1, core::BmmVariant::AllOpts}) {
        kernels::BmmData data = kernels::genBmmData(shape, 77);

        apu::ApuDevice fdev;
        auto fr = kernels::runBmmApu(fdev, shape, v, &data);

        apu::ApuDevice tdev;
        tdev.core(0).setMode(apu::ExecMode::TimingOnly);
        auto tr = kernels::runBmmApu(tdev, shape, v, nullptr);

        EXPECT_DOUBLE_EQ(fr.cycles.ldLhs, tr.cycles.ldLhs)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.cycles.ldRhs, tr.cycles.ldRhs)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.cycles.vrOps, tr.cycles.vrOps)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.cycles.store, tr.cycles.store)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.uops, tr.uops) << core::bmmVariantName(v);

        // And the functional answer is still the right one.
        auto expect = kernels::bmmReference(shape, data);
        ASSERT_EQ(fr.c.size(), expect.size());
        EXPECT_TRUE(std::equal(fr.c.begin(), fr.c.end(),
                               expect.begin()))
            << core::bmmVariantName(v);
    }
}

// ---- Live-lane extents: extent-aware ops == full-width evaluation ------

namespace {

constexpr unsigned kExtVrs = 12;  ///< VRs the property sweep touches
constexpr unsigned kExtSlots = 4; ///< VMRs the property sweep touches

/**
 * Two cores of one device driven with the same op sequence: core 0
 * holds extent-tracked registers (a live prefix plus a uniform
 * fill), core 1 the same contents fully materialized, with its
 * bit-slice engine on the scalar reference. Core 1's registers are
 * all-live, so every op there evaluates full width.
 */
struct ExtentPair
{
    ExtentPair() : lanes(dev.core(0)), full(dev.core(1))
    {
        dev.core(1).bitproc().setScalarReference(true);
    }

    size_t length() const { return dev.spec().vrLength; }

    /**
     * Make every oracle register all-live (the writable accessors
     * do), so the next op on core 1 evaluates full width.
     */
    void
    widenOracle()
    {
        apu::ApuCore &c = dev.core(1);
        for (unsigned vr = 0; vr < c.vr().numVrs(); ++vr)
            c.vr()[vr];
        for (unsigned s = 0; s < c.l1().numVmrs(); ++s)
            c.l1().slot(s);
    }

    /** Run `op` on the extent core, then full width on the oracle. */
    template <typename Op>
    void
    both(Op op)
    {
        op(lanes);
        widenOracle();
        op(full);
    }

    /** Extent 0, 1, ragged, a multiple of 64 (< L), or full L. */
    size_t
    randomExtent(Rng &rng) const
    {
        size_t l = length();
        switch (rng.nextBelow(5)) {
          case 0:
            return 0;
          case 1:
            return 1;
          case 2: {
            size_t e = 1 + rng.nextBelow(l - 1);
            return e % 64 ? e : e - 1;
          }
          case 3:
            return 64 * (1 + rng.nextBelow(l / 64 - 1));
          default:
            return l;
        }
    }

    /** Small alphabets make max/min ties between prefix and tail. */
    static uint16_t
    randomValue(Rng &rng)
    {
        return rng.nextBelow(2) ? static_cast<uint16_t>(rng.nextBelow(4))
                                : rng.nextU16();
    }

    /** Fill [0, e) of `live` (and the same lanes of `mirror`). */
    void
    fillBoth(uint16_t *live, std::vector<uint16_t> &mirror, size_t e,
             uint16_t fill, Rng &rng)
    {
        for (size_t i = 0; i < length(); ++i) {
            uint16_t v = i < e ? randomValue(rng) : fill;
            if (i < e)
                live[i] = v;
            mirror[i] = v;
        }
    }

    void
    seedVr(unsigned vr, Rng &rng)
    {
        size_t e = randomExtent(rng);
        uint16_t fill = randomValue(rng);
        fillBoth(dev.core(0).vr().lanes(vr).reshape(e, fill),
                 dev.core(1).vr()[vr], e, fill, rng);
    }

    void
    seedSlot(unsigned vmr, Rng &rng)
    {
        size_t e = randomExtent(rng);
        uint16_t fill = randomValue(rng);
        fillBoth(dev.core(0).l1().lanes(vmr).reshape(e, fill),
                 dev.core(1).l1().slot(vmr), e, fill, rng);
    }

    /**
     * Same lane values and the same CycleStats on both cores.
     * `materialize` compares the accessor-visible registers (which
     * fills core 0's stale tails); otherwise lanes are read through
     * Lanes::at, leaving core 0's tails stale for the next op.
     */
    void
    expectIdentical(const std::string &where, bool materialize)
    {
        const apu::ApuCore &a = dev.core(0);
        const apu::ApuCore &b = dev.core(1);
        ASSERT_EQ(a.stats().cycles(), b.stats().cycles()) << where;
        ASSERT_EQ(a.stats().uops(), b.stats().uops()) << where;
        for (unsigned vr = 0; vr < a.vr().numVrs(); ++vr) {
            if (materialize) {
                ASSERT_TRUE(a.vr()[vr] == b.vr()[vr])
                    << where << ": VR " << vr;
                continue;
            }
            const apu::Lanes &x = a.vr().lanes(vr);
            const std::vector<uint16_t> &y = b.vr()[vr];
            for (size_t i = 0; i < length(); ++i)
                ASSERT_EQ(x.at(i), y[i])
                    << where << ": VR " << vr << " lane " << i
                    << " (extent " << x.extent() << ")";
        }
        for (unsigned s = 0; s < kExtSlots; ++s)
            ASSERT_TRUE(a.l1().slot(s) == b.l1().slot(s))
                << where << ": VMR " << s;
    }

    ApuDevice dev;
    Gvml lanes;
    Gvml full;
};

using Ewise2 = void (Gvml::*)(Vr, Vr, Vr);
constexpr Ewise2 kEwise2[] = {
    &Gvml::xor16, &Gvml::and16, &Gvml::or16,  &Gvml::addS16,
    &Gvml::subU16, &Gvml::mulS16, &Gvml::maxU16, &Gvml::ltU16};

using Ewise1 = void (Gvml::*)(Vr, Vr);
constexpr Ewise1 kEwise1[] = {&Gvml::not16, &Gvml::popcnt16};

/** `k` distinct VRs of [0, kExtVrs), in random order. */
std::vector<unsigned>
distinctVrs(Rng &rng, size_t k)
{
    std::vector<unsigned> all(kExtVrs);
    for (unsigned i = 0; i < kExtVrs; ++i)
        all[i] = i;
    for (size_t i = 0; i < k; ++i)
        std::swap(all[i], all[i + rng.nextBelow(kExtVrs - i)]);
    all.resize(k);
    return all;
}

/** Drive both cores of `p` through `steps` random extent-aware ops. */
void
runExtentOps(ExtentPair &p, uint64_t seed, int steps)
{
    Rng rng(seed);
    for (unsigned vr = 0; vr < kExtVrs; ++vr)
        p.seedVr(vr, rng);
    for (unsigned s = 0; s < kExtSlots; ++s)
        p.seedSlot(s, rng);
    p.expectIdentical("seeded", false);

    auto vr = [&] { return Vr(static_cast<unsigned>(
                        rng.nextBelow(kExtVrs))); };
    auto vmr = [&] { return Vmr(static_cast<unsigned>(
                         rng.nextBelow(kExtSlots))); };
    for (int step = 0; step < steps; ++step) {
        std::string where = "seed " + std::to_string(seed) + " step " +
            std::to_string(step);
        unsigned op = static_cast<unsigned>(rng.nextBelow(13));
        where += " op " + std::to_string(op);
        p.widenOracle();
        switch (op) {
          case 0: {
            Vr d = vr();
            uint16_t imm = ExtentPair::randomValue(rng);
            p.lanes.cpyImm16(d, imm);
            p.full.cpyImm16(d, imm);
            break;
          }
          case 1: {
            Ewise2 fn = kEwise2[rng.nextBelow(std::size(kEwise2))];
            Vr d = vr(), a = vr(), b = vr();
            (p.lanes.*fn)(d, a, b);
            (p.full.*fn)(d, a, b);
            break;
          }
          case 2: {
            Ewise1 fn = kEwise1[rng.nextBelow(std::size(kEwise1))];
            Vr d = vr(), a = vr();
            (p.lanes.*fn)(d, a);
            (p.full.*fn)(d, a);
            break;
          }
          case 3: {
            // The fused MAC against the unfused op triple.
            size_t n = 1 + rng.nextBelow(kExtVrs - 3);
            auto regs = distinctVrs(rng, n + 3);
            Vr emb(regs[0]), q(regs[1]), t(regs[2]);
            std::vector<Vr> accs;
            std::vector<uint16_t> imms;
            for (size_t i = 0; i < n; ++i) {
                accs.push_back(Vr(regs[3 + i]));
                imms.push_back(rng.nextU16());
            }
            p.lanes.macImmS16(emb, q, t, accs.data(), imms.data(), n);
            for (size_t i = 0; i < n; ++i) {
                p.full.cpyImm16(q, imms[i]);
                p.full.mulS16(t, emb, q);
                p.full.addS16(accs[i], accs[i], t);
            }
            break;
          }
          case 4: {
            Vr d = vr(), m = vr();
            uint16_t imm = ExtentPair::randomValue(rng);
            p.lanes.cpyImm16Nmsk(d, imm, m);
            p.full.cpyImm16Nmsk(d, imm, m);
            break;
          }
          case 5: {
            Vr s = vr();
            auto a = p.lanes.maxIndexU16(s);
            auto b = p.full.maxIndexU16(s);
            ASSERT_EQ(a.value, b.value) << where;
            ASSERT_EQ(a.index, b.index) << where;
            a = p.lanes.minIndexU16(s);
            b = p.full.minIndexU16(s);
            ASSERT_EQ(a.value, b.value) << where;
            ASSERT_EQ(a.index, b.index) << where;
            break;
          }
          case 6: {
            Vr d = vr();
            Vmr s = vmr();
            p.lanes.load16(d, s);
            p.full.load16(d, s);
            break;
          }
          case 7: {
            Vmr d = vmr();
            Vr s = vr();
            p.lanes.store16(d, s);
            p.full.store16(d, s);
            break;
          }
          case 8: {
            // Within or beyond the extent, writing the fill or not.
            Vr d = vr();
            const apu::Lanes &x = p.dev.core(0).vr().lanes(d.idx);
            size_t idx = rng.nextBelow(p.length());
            uint16_t v =
                rng.nextBelow(2) ? x.fill() : ExtentPair::randomValue(rng);
            p.dev.core(0).rspSet(d.idx, idx, v);
            p.dev.core(1).rspSet(d.idx, idx, v);
            break;
          }
          case 9: {
            Vr s = vr();
            size_t idx = rng.nextBelow(p.length());
            ASSERT_EQ(p.dev.core(0).rspGet(s.idx, idx),
                      p.dev.core(1).rspGet(s.idx, idx))
                << where;
            break;
          }
          case 10: {
            size_t grp = size_t(1) << rng.nextBelow(16);
            size_t subgrp = size_t(1) << rng.nextBelow(
                                static_cast<uint64_t>(log2Floor(grp)) + 1);
            Vr d = vr(), s = vr();
            p.lanes.addSubgrpS16(d, s, grp, subgrp);
            p.full.addSubgrpS16(d, s, grp, subgrp);
            break;
          }
          case 11:
            p.seedVr(vr().idx, rng);
            break;
          default:
            p.seedSlot(vmr().idx, rng);
            break;
        }
        p.expectIdentical(where, step % 8 == 7);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    p.expectIdentical("final", true);
}

} // namespace

TEST(LiveLaneExtents, RandomOpsMatchFullWidth)
{
    for (uint64_t seed : {11u, 12u, 13u, 14u}) {
        ExtentPair p;
        runExtentOps(p, seed, 120);
        if (HasFatalFailure())
            return;
    }
}

TEST(LiveLaneExtents, RetrievalOpsStayOnLiveLanes)
{
    // The exhaustive retrieval sequence on a 512-lane shard: every
    // register it writes keeps a 512-lane extent, so no op walks the
    // padding; the answers match the full-width evaluation.
    ExtentPair p;
    const size_t live = 512;
    std::vector<uint16_t> emb(p.length(), 0), adm(p.length(), 0);
    Rng rng(9);
    for (size_t i = 0; i < live; ++i) {
        emb[i] = static_cast<uint16_t>(
            static_cast<int>(rng.nextBelow(15)) - 7);
        adm[i] = rng.nextBelow(4) != 0;
    }
    std::copy(emb.begin(), emb.begin() + live,
              p.dev.core(0).l1().lanes(0).reshape(live, 0));
    std::copy(adm.begin(), adm.begin() + live,
              p.dev.core(0).l1().lanes(1).reshape(live, 0));
    p.dev.core(1).l1().slot(0) = emb;
    p.dev.core(1).l1().slot(1) = adm;

    const Vr accs[2] = {Vr(8), Vr(9)};
    const uint16_t imms[2] = {3, 0xfffb};
    p.both([](Gvml &g) { g.cpyImm16(Vr(4), 0x8000); });
    for (Vr a : accs)
        p.both([a](Gvml &g) { g.cpyImm16(a, 0); });
    p.both([](Gvml &g) { g.load16(Vr(0), Vmr(0)); });
    p.both([&](Gvml &g) {
        g.macImmS16(Vr(0), Vr(1), Vr(2), accs, imms, 2);
    });
    p.both([](Gvml &g) { g.load16(Vr(6), Vmr(1)); });
    for (Vr a : accs) {
        p.both([a](Gvml &g) { g.xor16(a, a, Vr(4)); });
        p.both([a](Gvml &g) { g.cpyImm16Nmsk(a, 0, Vr(6)); });
    }
    const apu::VrFile &vrs = p.dev.core(0).vr();
    for (unsigned r : {0u, 2u, 6u, 8u, 9u})
        EXPECT_EQ(vrs.lanes(r).extent(), live) << "VR " << r;
    EXPECT_EQ(vrs.lanes(1).extent(), 0u);
    EXPECT_EQ(vrs.lanes(8).fill(), 0u); // padding never matches
    for (Vr a : accs) {
        for (int k = 0; k < 5; ++k) {
            p.widenOracle();
            auto x = p.lanes.maxIndexU16(a);
            auto y = p.full.maxIndexU16(a);
            ASSERT_EQ(x.value, y.value);
            ASSERT_EQ(x.index, y.index);
            EXPECT_LT(x.index, live);
            p.dev.core(0).rspSet(a.idx, x.index, 0);
            p.dev.core(1).rspSet(a.idx, y.index, 0);
        }
        EXPECT_EQ(vrs.lanes(a.idx).extent(), live);
    }
    p.expectIdentical("retrieval", true);
}

TEST(LiveLaneExtents, MaxMinTailTiesKeepFirstIndex)
{
    ApuDevice dev;
    Gvml g(dev.core(0));
    apu::Lanes &x = dev.core(0).vr().lanes(1);
    auto shape = [&](size_t e, uint16_t fill) {
        uint16_t *v = x.reshape(e, fill);
        for (size_t i = 0; i < e; ++i)
            v[i] = 100;
        if (e > 37)
            v[37] = 500, v[38] = 7;
    };
    // Prefix max tied by the tail: the prefix index is first.
    shape(100, 500);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 37u);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).value, 500u);
    // A strictly larger tail wins at its first lane, the extent.
    shape(100, 501);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 100u);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).value, 501u);
    shape(100, 499);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 37u);
    // Min: tie at the prefix minimum, then a strictly smaller tail.
    shape(100, 7);
    EXPECT_EQ(g.minIndexU16(Vr(1)).index, 38u);
    shape(100, 6);
    EXPECT_EQ(g.minIndexU16(Vr(1)).index, 100u);
    EXPECT_EQ(g.minIndexU16(Vr(1)).value, 6u);
    // No live lanes: every lane is the fill, so lane 0 is first.
    shape(0, 42);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 0u);
    EXPECT_EQ(g.minIndexU16(Vr(1)).index, 0u);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).value, 42u);
    // Full extent: the tail does not exist.
    shape(x.length(), 9999);
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 37u);
}

TEST(LiveLaneExtents, RspSetBeyondExtent)
{
    ApuDevice dev;
    apu::ApuCore &core = dev.core(0);
    apu::Lanes &x = core.vr().lanes(3);
    uint16_t *v = x.reshape(10, 7);
    for (size_t i = 0; i < 10; ++i)
        v[i] = static_cast<uint16_t>(i);
    // Writing the fill beyond the extent changes nothing.
    core.rspSet(3, 20, 7);
    EXPECT_EQ(x.extent(), 10u);
    // Any other value grows the live prefix through that lane.
    core.rspSet(3, 20, 9);
    EXPECT_EQ(x.extent(), 21u);
    EXPECT_EQ(core.rspGet(3, 15), 7u);
    EXPECT_EQ(core.rspGet(3, 20), 9u);
    EXPECT_EQ(core.rspGet(3, 21), 7u);
    const auto &all = static_cast<const apu::VrFile &>(core.vr())[3];
    for (size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(all[i], i < 10 ? i : i == 20 ? 9u : 7u) << i;
    // The read-only view materializes but keeps the extent; the
    // writable one makes every lane live.
    EXPECT_EQ(x.extent(), 21u);
    core.vr()[3][0] = 1;
    EXPECT_EQ(x.extent(), x.length());
}
