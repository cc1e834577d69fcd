/**
 * @file
 * The simulated GSI APU device and its cores.
 *
 * An ApuDevice owns the shared 16 GB device DRAM (L4) and four
 * ApuCores. Each core owns its private memory levels (L3 CP cache,
 * L2 scratchpad, L1 VMR file), its vector register file with the
 * bit-processor array, DMA/PIO engines, and a CycleStats ledger.
 *
 * Cores support two execution modes:
 *  - Functional: every operation moves/computes real data *and*
 *    charges cycles. Used by tests and small-scale runs.
 *  - TimingOnly: operations charge cycles but skip data movement.
 *    Used with CycleStats repeat scopes to time paper-scale workloads
 *    (valid because operation latency is data-independent).
 */

#ifndef CISRAM_APUSIM_APU_HH
#define CISRAM_APUSIM_APU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "apusim/apu_spec.hh"
#include "apusim/bitproc.hh"
#include "apusim/cycle_stats.hh"
#include "apusim/memory.hh"
#include "apusim/timing.hh"
#include "apusim/vr_file.hh"

namespace cisram::apu {

class ApuDevice;

enum class ExecMode { Functional, TimingOnly };

class ApuCore
{
  public:
    ApuCore(ApuDevice &device, unsigned core_id);

    unsigned id() const { return coreId; }
    const ApuSpec &spec() const;
    const TimingParams &timing() const;
    ApuDevice &device() { return dev; }

    ExecMode mode() const { return execMode; }
    void setMode(ExecMode m) { execMode = m; }
    bool functional() const { return execMode == ExecMode::Functional; }

    // --- state ---------------------------------------------------
    VrFile &vr() { return vrs; }
    const VrFile &vr() const { return vrs; }
    VmrFile &l1() { return l1_; }
    const VmrFile &l1() const { return l1_; }
    SramBuffer &l2() { return l2_; }
    SramBuffer &l3() { return l3_; }
    BitProcArray &bitproc() { return bitproc_; }
    CycleStats &stats() { return stats_; }
    const CycleStats &stats() const { return stats_; }

    // --- DMA -----------------------------------------------------
    // All DMA moves whole 512-byte chunks; sizes are rounded up to
    // chunk granularity for timing (a second-order effect the
    // analytical framework's linear fits do not capture).

    /** L4 -> L2 contiguous DMA. */
    void dmaL4ToL2(uint64_t l4_addr, size_t l2_off, size_t bytes);

    /** L2 -> L4 contiguous DMA. */
    void dmaL2ToL4(uint64_t l4_addr, size_t l2_off, size_t bytes);

    /** L4 -> L3 contiguous DMA (control-processor path). */
    void dmaL4ToL3(uint64_t l4_addr, size_t l3_off, size_t bytes);

    /** L3 -> L4 contiguous DMA. */
    void dmaL3ToL4(uint64_t l4_addr, size_t l3_off, size_t bytes);

    /**
     * Chunk-programmed L4 -> L2 DMA: each element of `chunk_srcs`
     * names the L4 address of one 512-byte chunk placed at
     * consecutive chunk slots starting at `l2_off`. Enables the
     * strided and duplicated layout transformations of
     * Section 2.1.2 within a single transaction.
     */
    void dmaL4ToL2Chunks(const std::vector<uint64_t> &chunk_srcs,
                         size_t l2_off);

    /** L2 -> L1: move the staged full vector into VMR `vmr`. */
    void dmaL2ToL1(unsigned vmr);

    /** L1 -> L2. */
    void dmaL1ToL2(unsigned vmr);

    /** Pipelined dual-engine L4 -> L1 of one full vector. */
    void dmaL4ToL1(unsigned vmr, uint64_t l4_addr);

    /** Pipelined dual-engine L1 -> L4 of one full vector. */
    void dmaL1ToL4(uint64_t l4_addr, unsigned vmr);

    // --- PIO -----------------------------------------------------

    /**
     * PIO load: `n` elements from L4 into VR `vr` with arbitrary
     * layout (dst index = vr_start + i * vr_stride, src address =
     * l4_addr + i * l4_stride_bytes).
     */
    void pioLoad(unsigned vr, size_t vr_start, size_t vr_stride,
                 uint64_t l4_addr, int64_t l4_stride_bytes, size_t n);

    /** PIO store: `n` elements from VR `vr` to L4. */
    void pioStore(uint64_t l4_addr, int64_t l4_stride_bytes,
                  unsigned vr, size_t vr_start, size_t vr_stride,
                  size_t n);

    /**
     * Serial element retrieval from a VR via the response FIFO
     * (L3 <-> VR path, one element at a time).
     */
    uint16_t rspGet(unsigned vr, size_t idx);

    /** Parallel insertion of one element into a VR via the CP. */
    void rspSet(unsigned vr, size_t idx, uint16_t value);

    /**
     * Indexed lookup: dst[i] = table[idx[i]] where the table is a
     * `table_entries`-entry u16 array at `l3_off` in L3. Cost grows
     * with table size (Table 4).
     */
    void lookup(unsigned dst_vr, unsigned idx_vr, size_t l3_off,
                size_t table_entries);

    // --- VR <-> L1 -----------------------------------------------

    /** Load VR `vr` from VMR `vmr` (full vector). */
    void loadVr(unsigned vr, unsigned vmr);

    /** Store VR `vr` to VMR `vmr` (full vector). */
    void storeVr(unsigned vmr, unsigned vr);

    // --- bookkeeping ----------------------------------------------

    /** Charge a vector-command cost plus VCU decode overhead. */
    void
    chargeVectorOp(uint64_t cycles)
    {
        stats_.charge(cycles + timing().control.vcuDecode);
        stats_.countUop();
    }

    /** Charge raw cycles without the decode overhead. */
    void chargeRaw(uint64_t cycles) { stats_.charge(cycles); }

  private:
    /** Cycles for an n-chunk single-engine burst. */
    uint64_t chunkBurstCycles(size_t chunks, double per_byte) const;

    ApuDevice &dev;
    unsigned coreId;
    ExecMode execMode = ExecMode::Functional;

    VrFile vrs;
    VmrFile l1_;
    SramBuffer l2_;
    SramBuffer l3_;
    BitProcArray bitproc_;
    CycleStats stats_;
};

class ApuDevice
{
  public:
    explicit ApuDevice(ApuSpec spec = defaultSpec(),
                       TimingParams timing = defaultTiming());

    const ApuSpec &spec() const { return spec_; }
    const TimingParams &timing() const { return timing_; }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores.size());
    }

    /** Trace process id of this device (0 when tracing is off). */
    uint32_t tracePid() const { return tracePid_; }

    ApuCore &core(unsigned i);

    DeviceDram &l4() { return dram; }
    DramAllocator &allocator() { return alloc; }

    /** Convert device cycles to seconds. */
    double
    cyclesToSeconds(double cycles) const
    {
        return cycles * spec_.secondsPerCycle();
    }

  private:
    ApuSpec spec_;
    TimingParams timing_;
    uint32_t tracePid_ = 0;
    DeviceDram dram;
    DramAllocator alloc;
    std::vector<std::unique_ptr<ApuCore>> cores;
};

} // namespace cisram::apu

#endif // CISRAM_APUSIM_APU_HH
