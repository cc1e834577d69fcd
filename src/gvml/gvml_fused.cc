/**
 * @file
 * Fused retrieval primitives.
 *
 * The RAG kernels' distance loop issues, per staged embedding plane
 * and per query, a broadcast + multiply + accumulate triple. Issued
 * separately those are three full element passes with two scratch-VR
 * round-trips; fused they are one pass that reads the embedding plane
 * and updates the accumulator in place. The cycle ledger cannot tell
 * the difference: the fused forms charge the identical cycle costs
 * under the identical op labels in the identical order, and leave the
 * VR file in the identical state (tests/test_wordparallel.cc pins
 * both against the unfused sequence).
 */

#include "gvml/gvml.hh"

#include <algorithm>

#include "common/gsifloat.hh"
#include "common/trace.hh"

namespace cisram::gvml {

namespace {

int16_t
asS16(uint16_t v)
{
    return static_cast<int16_t>(v);
}

uint16_t
asU16(int32_t v)
{
    return static_cast<uint16_t>(static_cast<uint16_t>(v & 0xffff));
}

} // namespace

void
Gvml::macImmS16(Vr emb, Vr scratch_q, Vr scratch_t, const Vr *accs,
                const uint16_t *imms, size_t n)
{
    const auto &t = core_.timing();
    bool fnl = core_.functional();
    apu::VrFile &vrs = core_.vr();
    for (size_t q = 0; q < n; ++q) {
        cisram_assert(accs[q].idx != emb.idx &&
                          accs[q].idx != scratch_q.idx &&
                          accs[q].idx != scratch_t.idx,
                      "fused MAC registers must be distinct");
        {
            trace::OpScope traceOp_("gvml.cpyImm16");
            core_.chargeVectorOp(t.move.cpyImm);
        }
        {
            trace::OpScope traceOp_("gvml.mulS16");
            core_.chargeVectorOp(t.compute.mulS16);
        }
        {
            trace::OpScope traceOp_("gvml.addS16");
            core_.chargeVectorOp(t.compute.addS16);
        }
        if (fnl) {
            apu::Lanes &e = vrs.lanes(emb.idx);
            apu::Lanes &a = vrs.lanes(accs[q].idx);
            int16_t w = asS16(imms[q]);
            auto mac = [w](uint16_t acc, uint16_t x) {
                uint16_t prod =
                    asU16(static_cast<int32_t>(asS16(x)) * w);
                return asU16(static_cast<int32_t>(asS16(acc)) +
                             asS16(prod));
            };
            size_t ext = std::max(e.extent(), a.extent());
            uint16_t tail = mac(a.fill(), e.fill());
            const uint16_t *ev = e.live(ext);
            uint16_t *av = a.live(ext);
            for (size_t i = 0; i < ext; ++i)
                av[i] = mac(av[i], ev[i]);
            a.reshape(ext, tail);
        }
    }
    if (fnl && n > 0) {
        // The last query's broadcast and product planes are what the
        // unfused sequence leaves behind in the scratch registers.
        vrs.lanes(scratch_q.idx).reshape(0, imms[n - 1]);
        const apu::Lanes &e = vrs.lanes(emb.idx);
        int16_t w = asS16(imms[n - 1]);
        auto mul = [w](uint16_t x) {
            return asU16(static_cast<int32_t>(asS16(x)) * w);
        };
        size_t ext = e.extent();
        const uint16_t *ev = e.live();
        uint16_t *tv =
            vrs.lanes(scratch_t.idx).reshape(ext, mul(e.fill()));
        for (size_t i = 0; i < ext; ++i)
            tv[i] = mul(ev[i]);
    }
}

void
Gvml::macImmGf16(Vr emb, Vr scratch_q, Vr scratch_t, Vr acc,
                 uint16_t imm)
{
    cisram_assert(acc.idx != emb.idx && acc.idx != scratch_q.idx &&
                      acc.idx != scratch_t.idx,
                  "fused MAC registers must be distinct");
    const auto &t = core_.timing();
    {
        trace::OpScope traceOp_("gvml.cpyImm16");
        core_.chargeVectorOp(t.move.cpyImm);
    }
    {
        trace::OpScope traceOp_("gvml.mulGf16");
        core_.chargeVectorOp(t.compute.mulF16);
    }
    {
        trace::OpScope traceOp_("gvml.addGf16");
        core_.chargeVectorOp(t.compute.mulF16);
    }
    if (!core_.functional())
        return;
    GsiFloat16 w = GsiFloat16::fromBits(imm);
    const auto &e = core_.vr()[emb.idx];
    auto &a = core_.vr()[acc.idx];
    auto &qv = core_.vr()[scratch_q.idx];
    auto &tv = core_.vr()[scratch_t.idx];
    for (size_t i = 0; i < a.size(); ++i) {
        uint16_t prod = (GsiFloat16::fromBits(e[i]) * w).bits();
        a[i] = (GsiFloat16::fromBits(a[i]) +
                GsiFloat16::fromBits(prod))
                   .bits();
        tv[i] = prod;
    }
    std::fill(qv.begin(), qv.end(), imm);
}

} // namespace cisram::gvml
