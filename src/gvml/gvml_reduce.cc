/**
 * @file
 * GVML reductions: hierarchical subgroup add, mark counting, and the
 * associative global max/min search.
 */

#include "gvml/gvml.hh"

#include "common/bitutils.hh"
#include "common/trace.hh"

namespace cisram::gvml {

void
Gvml::addSubgrpS16(Vr dst, Vr src, size_t grp, size_t subgrp)
{
    trace::OpScope traceOp_("gvml.addSubgrpS16");
    cisram_assert(isPow2(grp) && isPow2(subgrp),
                  "subgroup reduction requires power-of-two sizes");
    cisram_assert(subgrp <= grp && grp <= length(),
                  "invalid group/subgroup sizes");
    cisram_assert(length() % grp == 0, "group must divide VR length");

    if (grp == subgrp) {
        cpy16(dst, src);
        return;
    }

    // The device realizes this reduction with dedicated microcode:
    // log2(grp/subgrp) shift-and-add stages whose per-stage cost
    // grows quadratically with stage depth (wider alignment and
    // masking at each level). The total is therefore cubic in the
    // logarithms of the sizes, which is exactly the behaviour the
    // analytical framework's Eq. 1 models and fits.
    const auto &cp = core_.timing().compute;
    const auto &ct = core_.timing().control;

    std::vector<uint16_t> work;
    if (core_.functional())
        work = core_.vr()[src.idx];

    uint64_t ls = log2Floor(subgrp == 0 ? 1 : subgrp);
    for (size_t step = grp / 2; step >= subgrp; step /= 2) {
        uint64_t u = log2Floor(step == 0 ? 1 : step) + 1;
        uint64_t stage_cost = cp.sgStageBase + cp.sgStageLinear * u +
            cp.sgStageMask * ls * ls;
        core_.chargeVectorOp(stage_cost);
        core_.chargeVectorOp(cp.addS16);
        core_.chargeRaw(ct.vcuDecode); // mask re-arm between the pair

        if (core_.functional()) {
            for (size_t i = 0; i + step < work.size(); ++i) {
                int32_t sum = static_cast<int16_t>(work[i]) +
                              static_cast<int16_t>(work[i + step]);
                work[i] = static_cast<uint16_t>(sum & 0xffff);
            }
        }
    }

    if (core_.functional())
        core_.vr()[dst.idx] = std::move(work);
}

uint32_t
Gvml::countM(Vr mark)
{
    trace::OpScope traceOp_("gvml.countM");
    core_.chargeVectorOp(core_.timing().compute.countM);
    if (!core_.functional())
        return 0;
    const auto &m = core_.vr()[mark.idx];
    uint32_t n = 0;
    for (uint16_t v : m)
        if (v)
            ++n;
    return n;
}

namespace {

/**
 * First index of the extreme value under `better` (a strict order),
 * scanning only the live lanes: the uniform tail's first lane is
 * extent(), so it wins only when strictly better than every live
 * lane (first-index tie rule).
 */
template <typename Better>
Gvml::MaxResult
extremeIndex(const apu::Lanes &s, Better better)
{
    if (s.length() == 0)
        cisram_panic("associative search lost all candidates");
    size_t ext = s.extent();
    if (ext == 0)
        return {s.fill(), 0};
    const uint16_t *v = s.live();
    Gvml::MaxResult r{v[0], 0};
    for (size_t i = 1; i < ext; ++i) {
        if (better(v[i], r.value)) {
            r.value = v[i];
            r.index = i;
        }
    }
    if (ext < s.length() && better(s.fill(), r.value))
        r = {s.fill(), ext};
    return r;
}

/** Cycles charged per refinement step of the associative search. */
uint64_t
searchStepCycles(const apu::TimingParams &t)
{
    // One read-AND against the candidate mark plus the wired-OR "any"
    // test on the global horizontal lines.
    return t.compute.and16 + t.compute.or16 + 4;
}

} // namespace

Gvml::MaxResult
Gvml::maxIndexU16(Vr src)
{
    trace::OpScope traceOp_("gvml.maxIndexU16");
    const auto &t = core_.timing();
    // 16 bit-serial refinement steps, then one serial index fetch.
    for (int b = 0; b < 16; ++b)
        core_.chargeVectorOp(searchStepCycles(t));
    core_.chargeRaw(t.move.pioStorePerElem);

    if (!core_.functional())
        return {0, 0};

    // The MSB-first associative refinement provably converges on the
    // maximum with its candidate set equal to exactly the elements
    // attaining it (every refinement keeps all elements whose probed
    // prefix matches, and a bit is kept iff some candidate has it),
    // so the whole 16-round search collapses to a single linear max
    // scan returning the first index of the maximum
    // (tests/test_wordparallel.cc pins this against a brute-force
    // reference).
    return extremeIndex(core_.vr().lanes(src.idx),
                        [](uint16_t x, uint16_t y) { return x > y; });
}

Gvml::MaxResult
Gvml::minIndexU16(Vr src)
{
    trace::OpScope traceOp_("gvml.minIndexU16");
    const auto &t = core_.timing();
    for (int b = 0; b < 16; ++b)
        core_.chargeVectorOp(searchStepCycles(t));
    core_.chargeRaw(t.move.pioStorePerElem);

    if (!core_.functional())
        return {0, 0};

    // Minimum search: identical refinement on complemented bits, so
    // the same single-pass argument applies (see maxIndexU16) with
    // the comparison reversed.
    return extremeIndex(core_.vr().lanes(src.idx),
                        [](uint16_t x, uint16_t y) { return x < y; });
}

} // namespace cisram::gvml
