/**
 * @file
 * GVML: the vector math library of the simulated APU.
 *
 * Reimplements the API surface of the GSI Vector Math Library used by
 * the paper (Section 2.2.2, Tables 4 and 5): element-wise arithmetic,
 * logical and comparison operations, masked variants, copies and
 * broadcasts, intra-VR shifts, subgroup operations including the
 * hierarchical subgroup reduction, indexed lookup, and the DMA entry
 * points that device programs call (Figs. 5 and 6).
 *
 * Every operation charges its documented cycle cost to the owning
 * core's CycleStats and, in functional mode, computes real results.
 * Method names transliterate the C API (gvml_add_u16 -> addU16).
 */

#ifndef CISRAM_GVML_GVML_HH
#define CISRAM_GVML_GVML_HH

#include <cstdint>
#include <functional>

#include "apusim/apu.hh"

namespace cisram::gvml {

/** Strongly-typed vector register name (0..23). */
struct Vr
{
    explicit constexpr Vr(unsigned i) : idx(i) {}
    unsigned idx;
    bool operator==(const Vr &o) const { return idx == o.idx; }
};

/** Strongly-typed vector memory register (L1 slot) name (0..47). */
struct Vmr
{
    explicit constexpr Vmr(unsigned i) : idx(i) {}
    unsigned idx;
    bool operator==(const Vmr &o) const { return idx == o.idx; }
};

/**
 * The GVML interface bound to one APU core.
 *
 * Marks are ordinary VRs holding 0/1 per element; comparison ops
 * produce marks and masked ops consume them, mirroring GVML's marker
 * registers.
 *
 * Functionally, the element-wise ops, macImmS16, cpyImm16,
 * cpyImm16Nmsk, load16/store16 and the max/min searches touch only
 * their registers' live lanes (apu::Lanes) and compute the uniform
 * tail once; every other op works on the materialized registers
 * (DESIGN.md "Functional lane model"). Charges never depend on it.
 */
class Gvml
{
  public:
    explicit Gvml(apu::ApuCore &core) : core_(core) {}

    apu::ApuCore &core() { return core_; }
    size_t length() const { return core_.vr().length(); }

    // ---- element-wise logical ------------------------------------
    void and16(Vr dst, Vr a, Vr b);
    void or16(Vr dst, Vr a, Vr b);
    void xor16(Vr dst, Vr a, Vr b);
    void not16(Vr dst, Vr a);

    // ---- element-wise integer arithmetic -------------------------
    void addU16(Vr dst, Vr a, Vr b);
    void addS16(Vr dst, Vr a, Vr b);
    void subU16(Vr dst, Vr a, Vr b);
    void subS16(Vr dst, Vr a, Vr b);
    void mulU16(Vr dst, Vr a, Vr b);
    void mulS16(Vr dst, Vr a, Vr b);
    void divU16(Vr dst, Vr a, Vr b);
    void divS16(Vr dst, Vr a, Vr b);
    void minU16(Vr dst, Vr a, Vr b);
    void maxU16(Vr dst, Vr a, Vr b);
    void minS16(Vr dst, Vr a, Vr b);
    void maxS16(Vr dst, Vr a, Vr b);

    /** Population count of each 16-bit element. */
    void popcnt16(Vr dst, Vr a);

    /**
     * Arithmetic shift by an immediate: positive `sh` shifts left,
     * negative shifts right (sign-extending), matching GVML's
     * ashift/sr/sl family.
     */
    void ashImm16(Vr dst, Vr a, int sh);

    /** Logical shift right by immediate. */
    void srImm16(Vr dst, Vr a, unsigned sh);

    /** Logical shift left by immediate. */
    void slImm16(Vr dst, Vr a, unsigned sh);

    /** Q0.16 reciprocal: dst = floor(65535 / a), dst = 0xffff if a==0. */
    void recipU16(Vr dst, Vr a);

    // ---- element-wise float16 ------------------------------------
    void addF16(Vr dst, Vr a, Vr b);
    void mulF16(Vr dst, Vr a, Vr b);
    void expF16(Vr dst, Vr a);

    /** GSI-float (1s/6e/9m) element-wise multiply. */
    void mulGf16(Vr dst, Vr a, Vr b);

    /** GSI-float element-wise add. */
    void addGf16(Vr dst, Vr a, Vr b);

    /**
     * Map GSI floats to an order-preserving u16 key (sign-magnitude
     * to biased): negative values invert all bits, non-negative set
     * the sign bit. Composite of element-wise ops; lets the
     * associative max search rank float scores.
     */
    void orderGf16(Vr dst, Vr src, Vr scratch, Vr scratch2);

    // ---- fixed-point trigonometry --------------------------------
    void sinFx(Vr dst, Vr phase);
    void cosFx(Vr dst, Vr phase);

    // ---- masked arithmetic (GVML's _msk family) -------------------
    // dst[i] = mark[i] ? a[i] op b[i] : dst[i]. The bit-slice array
    // executes everywhere and the write masks, so the cost matches
    // the unmasked op plus the mask arm.

    void addU16Msk(Vr dst, Vr a, Vr b, Vr mark);
    void subU16Msk(Vr dst, Vr a, Vr b, Vr mark);
    void mulU16Msk(Vr dst, Vr a, Vr b, Vr mark);
    void minU16Msk(Vr dst, Vr a, Vr b, Vr mark);
    void maxU16Msk(Vr dst, Vr a, Vr b, Vr mark);

    // ---- comparisons (produce 0/1 marks) -------------------------
    void eq16(Vr dst, Vr a, Vr b);
    void gtU16(Vr dst, Vr a, Vr b);
    void ltU16(Vr dst, Vr a, Vr b);
    void geU16(Vr dst, Vr a, Vr b);
    void leU16(Vr dst, Vr a, Vr b);
    void gtS16(Vr dst, Vr a, Vr b);
    void ltS16(Vr dst, Vr a, Vr b);
    void ltGf16(Vr dst, Vr a, Vr b);

    // ---- copies and broadcasts -----------------------------------
    void cpy16(Vr dst, Vr src);
    void cpyImm16(Vr dst, uint16_t imm);

    /** Masked copy: dst[i] = mark[i] ? src[i] : dst[i]. */
    void cpy16Msk(Vr dst, Vr src, Vr mark);

    /** Masked immediate: dst[i] = mark[i] ? imm : dst[i]. */
    void cpyImm16Msk(Vr dst, uint16_t imm, Vr mark);

    /**
     * Negated-mask immediate (GVML's _nmsk family):
     * dst[i] = mark[i] ? dst[i] : imm. Lets a predicate bitmask
     * knock *non-matching* lanes out in one op — the metadata-filter
     * AND in the retrieval path — without first inverting the mark.
     */
    void cpyImm16Nmsk(Vr dst, uint16_t imm, Vr mark);

    /**
     * Compacting copy (gvml_cpy_from_mrk_16_msk, used in Fig. 6):
     * the marked elements of src are written, in order, to the head
     * of dst; the tail is zero-filled. Returns the number of marked
     * elements (also available via countM).
     */
    uint32_t cpyFromMrk16(Vr dst, Vr src, Vr mark);

    /**
     * Subgroup broadcast: within each group of `grp` elements,
     * replicate the subgroup at index `which` (0-based, of the
     * grp/subgrp subgroups) to fill the group (paper Section 4.3,
     * Fig. 10 -- "subgroup copy can also target a portion of the
     * VR"). `subgrp` must divide `grp`, both must divide the VR
     * length.
     */
    void cpySubgrp16Grp(Vr dst, Vr src, size_t grp, size_t subgrp,
                        size_t which = 0);

    /** dst[i] = i % grp (index of the element within its group). */
    void createGrpIndexU16(Vr dst, size_t grp);

    /** dst[i] = i (global element index, low 16 bits). */
    void createIndexU16(Vr dst);

    // ---- intra-VR shifts -----------------------------------------

    /**
     * Shift elements toward the head by `k` (dst[i] = src[i+k]),
     * zero-filling the tail; negative `k` shifts toward the tail.
     * Multiples of 4 take the cheap intra-bank path (Table 4).
     */
    void shiftE(Vr dst, Vr src, int64_t k);

    // ---- reductions ----------------------------------------------

    /**
     * Hierarchical subgroup reduction (add_subgrp_s16): the VR is
     * split into groups of `grp` elements, each split into
     * subgroups of `subgrp` elements. The subgroups of each group
     * are summed element-wise; the result occupies the first
     * `subgrp` elements of each group (remaining elements hold
     * partial sums). Cost follows the staged shift-and-add
     * decomposition the device performs (modeled by Eq. 1).
     */
    void addSubgrpS16(Vr dst, Vr src, size_t grp, size_t subgrp);

    /** Count of non-zero (marked) elements; scalar to the CP. */
    uint32_t countM(Vr mark);

    // ---- fused retrieval primitives ------------------------------

    /**
     * Fused multiply-accumulate against per-query immediates: for
     * each q in [0, n),
     *
     *   cpyImm16(scratch_q, imms[q]);
     *   mulS16(scratch_t, emb, scratch_q);
     *   addS16(accs[q], accs[q], scratch_t);
     *
     * exactly as if the three ops were issued separately — the same
     * cycles are charged under the same op labels in the same order,
     * and the VR file ends in the same state (scratch_q / scratch_t
     * hold the last query's broadcast and products). Functionally,
     * though, each query's three element passes collapse into one
     * read-emb/update-acc pass, and the scratch registers are only
     * materialized once at the end. This is the inner loop of the
     * RAG retrieval kernels (one embedding plane against a batch of
     * query scalars); equivalence is pinned by
     * tests/test_wordparallel.cc.
     *
     * `emb`, `scratch_q`, `scratch_t`, and every `accs[q]` must be
     * distinct registers.
     */
    void macImmS16(Vr emb, Vr scratch_q, Vr scratch_t,
                   const Vr *accs, const uint16_t *imms, size_t n);

    /**
     * GSI-float variant of macImmS16 (cpyImm16 + mulGf16 + addGf16)
     * for a single accumulator.
     */
    void macImmGf16(Vr emb, Vr scratch_q, Vr scratch_t, Vr acc,
                    uint16_t imm);

    /**
     * Global maximum and its first index, found by the associative
     * bit-serial search the APU's GVL/GHL lines enable.
     */
    struct MaxResult
    {
        uint16_t value;
        size_t index;
    };
    MaxResult maxIndexU16(Vr src);

    /** Global minimum and its first index (u16). */
    MaxResult minIndexU16(Vr src);

    // ---- data movement entry points ------------------------------

    /** Fig. 5: direct_dma_l4_to_l1_32k. */
    void
    directDmaL4ToL1_32k(Vmr vmr, uint64_t l4_addr)
    {
        core_.dmaL4ToL1(vmr.idx, l4_addr);
    }

    /** Fig. 5: direct_dma_l1_to_l4_32k. */
    void
    directDmaL1ToL4_32k(uint64_t l4_addr, Vmr vmr)
    {
        core_.dmaL1ToL4(l4_addr, vmr.idx);
    }

    /** Fig. 6: fast_dma_l4_to_l2. */
    void
    fastDmaL4ToL2(uint64_t l4_addr, size_t l2_off, size_t bytes)
    {
        core_.dmaL4ToL2(l4_addr, l2_off, bytes);
    }

    /** Fig. 6: direct_dma_l2_to_l1_32k. */
    void
    directDmaL2ToL1_32k(Vmr vmr)
    {
        core_.dmaL2ToL1(vmr.idx);
    }

    /** Load a VR from a VMR (gvml_load_16). */
    void load16(Vr dst, Vmr src) { core_.loadVr(dst.idx, src.idx); }

    /** Store a VR to a VMR (gvml_store_16). */
    void store16(Vmr dst, Vr src) { core_.storeVr(dst.idx, src.idx); }

    /** Indexed lookup from an L3-resident u16 table. */
    void
    lookup16(Vr dst, Vr idx, size_t l3_off, size_t table_entries)
    {
        core_.lookup(dst.idx, idx.idx, l3_off, table_entries);
    }

    // ---- direct element access (tests / host glue) ---------------
    // The materialized register; the writable form makes every lane
    // live.
    std::vector<uint16_t> &
    data(Vr v)
    {
        return core_.vr()[v.idx];
    }

    const std::vector<uint16_t> &
    data(Vr v) const
    {
        return core_.vr()[v.idx];
    }

  private:
    /** Apply a binary element-wise op with cost `cycles`. */
    void ewise2(Vr dst, Vr a, Vr b, uint64_t cycles,
                uint16_t (*fn)(uint16_t, uint16_t));

    /** Masked binary op: writes only where mark is non-zero. */
    void ewise2Msk(Vr dst, Vr a, Vr b, Vr mark, uint64_t cycles,
                   uint16_t (*fn)(uint16_t, uint16_t));

    /** Apply a unary element-wise op with cost `cycles`. */
    void ewise1(Vr dst, Vr a, uint64_t cycles,
                uint16_t (*fn)(uint16_t));

    apu::ApuCore &core_;
};

} // namespace cisram::gvml

#endif // CISRAM_GVML_GVML_HH
