/**
 * @file
 * Exact nearest-neighbour RAG retrieval on the simulated APU
 * (paper Section 5.3): the end-to-end workload behind Fig. 14,
 * Table 8, and Fig. 15.
 *
 * Corpus embeddings (368-dim int16) reside in the device's off-chip
 * memory, modeled as simulated HBM2e (src/dramsim) per the paper's
 * methodology: the embedding-load stage is timed by the HBM
 * simulator, everything else by the APU cycle model.
 *
 * Variants:
 *  - NoOpt: spatial mapping. Chunks are padded to 512 elements for
 *    subgroup alignment (this padding is why the unoptimized
 *    embedding load streams more bytes: 8.2 ms vs 6.1 ms at 200 GB
 *    in the paper), dot products reduce with add_subgrp_s16, and
 *    the scattered per-chunk scores leave the VR by PIO.
 *  - Opt1: communication-aware reduction mapping. Embeddings are
 *    stored dimension-major; each VR lane accumulates one chunk's
 *    dot product temporally, one element-wise MAC per dimension,
 *    with the query scalar broadcast by subgroup copy.
 *  - Opt2 (on either base): coalesced DMA descriptor chains for the
 *    streamed planes/tiles.
 *  - Opt3: broadcast-friendly query layout: the CP broadcasts query
 *    scalars as immediates instead of subgroup copies.
 *  - AllOpts: Opt1 + Opt2 + Opt3.
 *
 * Top-k uses the associative global-max search per score VR; the CP
 * merges per-VR candidates.
 */

#ifndef CISRAM_KERNELS_RAG_HH
#define CISRAM_KERNELS_RAG_HH

#include <cstdint>
#include <vector>

#include "apusim/apu.hh"
#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "dramsim/dram_sim.hh"

namespace cisram::kernels {

enum class RagVariant { NoOpt, Opt1, Opt2, Opt3, AllOpts };

const char *ragVariantName(RagVariant v);

/**
 * Per-query index parameters, routed with the query through
 * admission, batching, sharding, and replay. Queries only share a
 * device batch when their params are identical (the batch former
 * enforces this), so one RagSearchParams describes a whole batch.
 */
struct RagSearchParams
{
    /**
     * Inverted lists to probe. 0 = exhaustive scan (no coarse
     * quantization). Values >= the clustering's list count probe
     * every list, which scans the same chunk set as the exhaustive
     * path and must bit-compare with it (the nprobe=K identity
     * invariant; gated by tests).
     */
    size_t nprobe = 0;

    /**
     * Metadata predicate: bitmask of admitted chunk labels
     * (baseline::chunkLabel); kFilterAll = unfiltered. On-device the
     * predicate plane is ANDed into the match mask — one masked
     * select per score VR, nearly free next to the dim-long MAC
     * loop. The CPU golden applies the identical predicate.
     */
    uint16_t filterMask = baseline::kFilterAll;

    bool
    operator==(const RagSearchParams &o) const
    {
        return nprobe == o.nprobe && filterMask == o.filterMask;
    }

    bool
    operator!=(const RagSearchParams &o) const
    {
        return !(*this == o);
    }
};

/** Options for retrieveBatch. */
struct RagBatchOptions
{
    /**
     * Double-buffer the per-supertile HBM embedding stream behind
     * distance compute on the other DMA engine: while the VXU scores
     * supertile st, the stream for supertile st+1 lands in the spare
     * L4 buffer. Costed as max(stream, compute) per steady-state
     * supertile plus one pipeSyncL4L1 per supertile, instead of
     * stream + compute (see DESIGN.md "Overlapped corpus
     * streaming"). Functional results are unaffected — only the
     * timing ledger changes.
     */
    bool overlapStream = false;

    /** Index parameters shared by every query in the batch. */
    RagSearchParams search;

    /**
     * Coarse quantizer backing search.nprobe > 0. Host-built once
     * per corpus (baseline::IvfClustering::build) and resident
     * across batches; a retriever serves one clustering, staging its
     * centroid table once and each inverted list the first time a
     * batch probes it. Null forces the exhaustive path regardless of
     * nprobe.
     */
    const baseline::IvfClustering *ivf = nullptr;
};

/** Table 8 stage latencies, in seconds. */
struct RagStageLatency
{
    double loadEmbedding = 0; ///< simulated HBM stream
    double loadQuery = 0;
    double calcDistance = 0;
    double topkAggregation = 0;
    double returnTopk = 0;

    /**
     * Seconds of the embedding stream hidden behind distance compute
     * when the overlapped streaming mode is on (0 otherwise). Stage
     * latencies above keep their full per-stage attribution so Table
     * 8 breakdowns stay comparable across modes; total() subtracts
     * the hidden portion to yield the critical-path latency
     * max(stream, compute) + pipeline syncs instead of their sum.
     */
    double overlapHidden = 0;

    double
    total() const
    {
        return loadEmbedding + loadQuery + calcDistance +
            topkAggregation + returnTopk - overlapHidden;
    }
};

struct RagRunResult
{
    RagStageLatency stages;

    /** Functional mode: the exact top-k hits (score = int dot). */
    std::vector<baseline::Hit> hits;

    /**
     * Device address of the staged top-k result ids (u32 each, in
     * rank order) for the return-topk stage. Host code reads the
     * ids back from *this* buffer over PCIe — not from the query
     * buffer. topkIdsCount is 0 in TimingOnly mode (no functional
     * results exist to stage).
     */
    uint64_t topkIdsAddr = 0;
    size_t topkIdsCount = 0;

    // Activity for the energy model (Fig. 15).
    double computeSeconds = 0; ///< VXU-active time
    double dramBytes = 0;      ///< off-chip bytes streamed
    double cacheBytes = 0;     ///< bytes through L2/L1

    /**
     * OK unless the embedding stream hit an uncorrectable DRAM ECC
     * error (injected dram_flip2 fault), in which case the scores
     * derived from it cannot be trusted and the serving loop should
     * retry or fall back. Single-bit flips are corrected inline by
     * SECDED and never surface here.
     */
    Status status = Status::okStatus();
};

class RagRetriever
{
  public:
    /**
     * @param hbm The off-chip memory model used for embedding
     *        streaming (typically hbm2eConfig()).
     * @param core_idx The device core this retriever executes on.
     *        A serving loop sharded with runOnAllCores constructs
     *        one retriever per core; retrievers on distinct cores
     *        may run concurrently (each needs its own DramSystem —
     *        the HBM model is stateful).
     */
    RagRetriever(apu::ApuDevice &dev, dram::DramSystem &hbm,
                 baseline::RagCorpusSpec corpus, size_t top_k = 5,
                 unsigned core_idx = 0);

    ~RagRetriever();

    RagRetriever(const RagRetriever &) = delete;
    RagRetriever &operator=(const RagRetriever &) = delete;

    /**
     * Serve one query.
     *
     * Functional mode (device core 0 in Functional mode): the corpus
     * must be small enough to materialize; embeddings are generated
     * from `corpus_seed` and real hits are returned.
     * TimingOnly mode: stages are timed at any corpus scale.
     */
    RagRunResult retrieve(const std::vector<int16_t> &query,
                          RagVariant variant, uint64_t corpus_seed);

    /**
     * Batched retrieval (throughput extension): serve up to eight
     * queries in one pass over the corpus, amortizing the embedding
     * stream and the per-plane ingest across the batch. Uses the
     * fully optimized (AllOpts) mapping; one accumulator VR per
     * query.
     *
     * @return Per-query results; each carries the whole batch's
     *         stage latencies divided evenly (throughput view).
     */
    std::vector<RagRunResult>
    retrieveBatch(const std::vector<std::vector<int16_t>> &queries,
                  uint64_t corpus_seed, RagBatchOptions opts = {});

    /**
     * GSI-float-scored retrieval (extension): embeddings and query
     * are converted to the device's native gf16 (1s/6e/9m) format
     * and distances accumulate with mul_gf16/add_gf16, whose 77-
     * cycle latency undercuts mul_s16's 201 (Table 5). Scores rank
     * through the order-preserving bias transform; hits report the
     * gf16 dot products. Uses the AllOpts mapping.
     */
    RagRunResult retrieveGf16(const std::vector<int16_t> &query,
                              uint64_t corpus_seed);

    const baseline::RagCorpusSpec &corpus() const { return corpus_; }

    /**
     * Rows generated and staged into resident planes over this
     * retriever's lifetime (functional mode): each chunk of the
     * exhaustive shard and of each probed inverted list counts
     * once, when first staged.
     */
    uint64_t stagedRows() const { return stagedRows_; }

  private:
    RagRunResult retrieveSpatial(const std::vector<int16_t> &query,
                                 bool coalesce, bool bf_query,
                                 uint64_t corpus_seed);
    RagRunResult retrieveTemporal(const std::vector<int16_t> &query,
                                  bool coalesce, bool bf_query,
                                  uint64_t corpus_seed);

    /**
     * retrieveBatch's supertile plan (runs of resident segments
     * behind an optional coarse pass; planIvf builds the IVF one),
     * and the stage ledger whose finish() ends every retrieval path:
     * the calc/top-k split, the return charge, the per-query 1/b
     * fan-out, the hit merge, the staged top-k ids, the ECC taint.
     */
    struct Plan;
    struct Ledger;
    void planIvf(Plan &plan,
                 const std::vector<std::vector<int16_t>> &queries,
                 const RagBatchOptions &opts);
    std::vector<RagRunResult> finish(Ledger &lg);

    /**
     * Dimension-major planes resident in L4 (functional mode) for a
     * chunk permutation split into segments. Segment s covers
     * permutation positions [ext[s], ext[s+1]) (null perm = identity
     * order) as a run of ragged supertiles from supertile first[s];
     * each supertile keeps room for dim full planes. One block holds
     * every segment, allocated on first use. A segment is generated
     * and staged the first time a batch scores it and stays until
     * the retriever is destroyed — for a DeviceServer, one corpus
     * epoch or one core reset. A different corpus seed re-stages in
     * place.
     */
    struct ResidentPlanes
    {
        const uint32_t *perm = nullptr;
        std::vector<uint64_t> ext;
        std::vector<size_t> first;
        std::vector<bool> staged;
        uint64_t addr = 0;
        uint64_t seed = 0;

        /** Spec-local chunk id at permutation position `p`. */
        uint64_t local(uint64_t p) const { return perm ? perm[p] : p; }
    };

    /** Address of segment `s` of `rp`, staged on first use. */
    uint64_t residentSegment(ResidentPlanes &rp, size_t s,
                             uint64_t corpus_seed);

    /**
     * Stage the admit planes of `plan`'s runs (laid out by
     * residentSegment), one per supertile in order, into a block the
     * caller frees: lane validity AND epoch liveness (tombstoned
     * chunks keep their staged position but never match) AND the
     * metadata predicate `filter`.
     */
    uint64_t admitPlanes(const Plan &plan, uint16_t filter,
                         uint64_t corpus_seed);

    apu::ApuDevice &dev;
    dram::DramSystem &hbm;
    baseline::RagCorpusSpec corpus_;
    size_t topK;
    unsigned coreIdx_;
    uint64_t idsAddr_; ///< 8 batch slots of topK u32 ids each
    ResidentPlanes shard_; ///< the exhaustive scan: one segment
    ResidentPlanes lists_; ///< IVF: one segment per inverted list
    /** The clustering whose centroid table is staged at centAddr_;
     * set by the first functional IVF batch. */
    const baseline::IvfClustering *ivf_ = nullptr;
    uint64_t centAddr_ = 0; ///< centroid planes + validity plane
    uint64_t stagedRows_ = 0;
};

} // namespace cisram::kernels

#endif // CISRAM_KERNELS_RAG_HH
