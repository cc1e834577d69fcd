/**
 * @file
 * GVML copies, broadcasts, subgroup moves, and intra-VR shifts.
 */

#include "gvml/gvml.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/trace.hh"

namespace cisram::gvml {

void
Gvml::cpy16(Vr dst, Vr src)
{
    trace::OpScope traceOp_("gvml.cpy16");
    core_.chargeVectorOp(core_.timing().move.cpy);
    if (core_.functional())
        core_.vr()[dst.idx] = core_.vr()[src.idx];
}

void
Gvml::cpyImm16(Vr dst, uint16_t imm)
{
    trace::OpScope traceOp_("gvml.cpyImm16");
    core_.chargeVectorOp(core_.timing().move.cpyImm);
    if (core_.functional())
        core_.vr().lanes(dst.idx).reshape(0, imm);
}

void
Gvml::cpy16Msk(Vr dst, Vr src, Vr mark)
{
    trace::OpScope traceOp_("gvml.cpy16Msk");
    core_.chargeVectorOp(core_.timing().compute.selectMsk);
    if (!core_.functional())
        return;
    auto &d = core_.vr()[dst.idx];
    const auto &s = core_.vr()[src.idx];
    const auto &m = core_.vr()[mark.idx];
    for (size_t i = 0; i < d.size(); ++i)
        if (m[i])
            d[i] = s[i];
}

void
Gvml::cpyImm16Msk(Vr dst, uint16_t imm, Vr mark)
{
    trace::OpScope traceOp_("gvml.cpyImm16Msk");
    core_.chargeVectorOp(core_.timing().compute.selectMsk);
    if (!core_.functional())
        return;
    auto &d = core_.vr()[dst.idx];
    const auto &m = core_.vr()[mark.idx];
    for (size_t i = 0; i < d.size(); ++i)
        if (m[i])
            d[i] = imm;
}

void
Gvml::cpyImm16Nmsk(Vr dst, uint16_t imm, Vr mark)
{
    trace::OpScope traceOp_("gvml.cpyImm16Nmsk");
    // Same bit-processor select as the positive-mask form; the
    // negation is free in the per-lane select logic.
    core_.chargeVectorOp(core_.timing().compute.selectMsk);
    if (!core_.functional())
        return;
    apu::Lanes &d = core_.vr().lanes(dst.idx);
    apu::Lanes &m = core_.vr().lanes(mark.idx);
    size_t e = std::max(d.extent(), m.extent());
    uint16_t tail = m.fill() ? d.fill() : imm;
    const uint16_t *mv = m.live(e);
    uint16_t *dv = d.live(e);
    for (size_t i = 0; i < e; ++i)
        if (!mv[i])
            dv[i] = imm;
    d.reshape(e, tail);
}

uint32_t
Gvml::cpyFromMrk16(Vr dst, Vr src, Vr mark)
{
    trace::OpScope traceOp_("gvml.cpyFromMrk16");
    // The compaction runs on the bit processors with a prefix-count
    // network; priced like two masked copies.
    core_.chargeVectorOp(2 * core_.timing().compute.selectMsk);
    if (!core_.functional())
        return 0;
    const auto &s = core_.vr()[src.idx];
    const auto &m = core_.vr()[mark.idx];
    std::vector<uint16_t> out(length(), 0);
    uint32_t n = 0;
    for (size_t i = 0; i < length(); ++i)
        if (m[i])
            out[n++] = s[i];
    core_.vr()[dst.idx] = std::move(out);
    return n;
}

void
Gvml::cpySubgrp16Grp(Vr dst, Vr src, size_t grp, size_t subgrp,
                     size_t which)
{
    trace::OpScope traceOp_("gvml.cpySubgrp16Grp");
    cisram_assert(grp > 0 && subgrp > 0 && grp % subgrp == 0,
                  "subgroup must divide group");
    cisram_assert(length() % grp == 0, "group must divide VR length");
    cisram_assert(which < grp / subgrp, "subgroup index OOB");
    core_.chargeVectorOp(core_.timing().move.cpySubgrp);
    if (!core_.functional())
        return;
    auto &d = core_.vr()[dst.idx];
    const auto &s = core_.vr()[src.idx];
    std::vector<uint16_t> out(length());
    for (size_t g = 0; g < length(); g += grp)
        for (size_t i = 0; i < grp; ++i)
            out[g + i] = s[g + which * subgrp + (i % subgrp)];
    d = std::move(out);
}

void
Gvml::createGrpIndexU16(Vr dst, size_t grp)
{
    trace::OpScope traceOp_("gvml.createGrpIndexU16");
    cisram_assert(grp > 0 && length() % grp == 0);
    core_.chargeVectorOp(core_.timing().compute.createGrpIndex);
    if (!core_.functional())
        return;
    auto &d = core_.vr()[dst.idx];
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<uint16_t>(i % grp);
}

void
Gvml::createIndexU16(Vr dst)
{
    trace::OpScope traceOp_("gvml.createIndexU16");
    core_.chargeVectorOp(core_.timing().compute.createGrpIndex);
    if (!core_.functional())
        return;
    auto &d = core_.vr()[dst.idx];
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<uint16_t>(i);
}

void
Gvml::shiftE(Vr dst, Vr src, int64_t k)
{
    trace::OpScope traceOp_("gvml.shiftE");
    uint64_t mag = static_cast<uint64_t>(k < 0 ? -k : k);
    const auto &mv = core_.timing().move;
    uint64_t cost;
    if (mag == 0) {
        cost = mv.cpy;
    } else if (mag % 4 == 0) {
        // Intra-bank path: shift_e(4k) costs 8 + k (Table 4).
        cost = mv.shiftIntraBankBase + mag / 4;
    } else {
        // Generic element shift: 373 cycles per element step.
        cost = mv.shiftPerStep * mag;
    }
    core_.chargeVectorOp(cost);
    if (!core_.functional())
        return;
    const auto &s = core_.vr()[src.idx];
    std::vector<uint16_t> out(length(), 0);
    if (k >= 0) {
        for (size_t i = 0; i + mag < length(); ++i)
            out[i] = s[i + mag];
    } else {
        for (size_t i = mag; i < length(); ++i)
            out[i] = s[i - mag];
    }
    core_.vr()[dst.idx] = std::move(out);
}

} // namespace cisram::gvml
