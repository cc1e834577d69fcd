/**
 * @file
 * IVF-lite: a k-means-lite coarse quantizer + inverted chunk lists.
 *
 * Exhaustive ENNS (the paper's only regime) scans every chunk; no
 * production vector service at 3.3 M chunks does that. This module
 * adds the classic IVF recipe in miniature: K centroids trained by a
 * few Lloyd iterations of max-inner-product k-means (the assignment
 * idiom mirrors the Phoenix k-means kernel in
 * src/kernels/phoenix_compute.cc), every chunk assigned to its
 * best-scoring centroid, and per-list chunk id arrays so a query
 * scans only the `nprobe` most promising lists.
 *
 * Determinism contract (everything here is pure function of
 * (spec, seed, config)):
 *  - training sample = fixed-stride subset of the corpus;
 *  - init centroids = evenly strided sample rows;
 *  - assignment ties go to the lowest centroid id;
 *  - empty lists keep their previous centroid;
 *  - list arrays are built scanning chunks in ascending id order, so
 *    ids *within* each list are ascending — the device path depends
 *    on this for exact per-supertile tie behaviour.
 *
 * Max inner product is used for both training assignment and probe
 * selection because it is exactly what the device distance kernel
 * computes; on the clustered corpus model (workloads.hh, topics > 0)
 * it separates topics cleanly. Both score through the golden layer's
 * one kernel (golden.hh, dotBlock): training scores each block of
 * rows against all centroids as the query block.
 *
 * The `nprobe = numLists` identity invariant: probing every list
 * scans exactly the same chunk set as the exhaustive path, so the
 * answers must bit-compare — on the CPU golden and on the APU,
 * filtered or not. Tests gate on it.
 */

#ifndef CISRAM_BASELINE_IVF_HH
#define CISRAM_BASELINE_IVF_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"

namespace cisram::baseline {

/** Coarse-quantizer training knobs (all deterministic). */
struct IvfBuildConfig
{
    size_t numLists = 64;      ///< K: centroid / inverted-list count
    size_t trainSample = 16384; ///< max chunks sampled for Lloyd
    size_t iterations = 8;     ///< fixed Lloyd iteration count
};

/**
 * The trained coarse quantizer + inverted lists for one corpus spec.
 * Holds spec-local chunk ids; a fleet shard builds its own clustering
 * over its slice and the router's merge stays exact because
 * `nprobe >= numLists` per shard degenerates to exhaustive per shard.
 */
class IvfClustering
{
  public:
    /**
     * Train centroids and assign every chunk. Pure in its inputs.
     * `rows`, when given, is the corpus already materialized (row i
     * = spec-local chunk i, e.g. a shard's golden flat index): the
     * sample and the final assignment read it instead of hashing
     * every row again. The result is the same either way.
     */
    static IvfClustering build(const RagCorpusSpec &spec,
                               uint64_t seed,
                               const IvfBuildConfig &cfg = {},
                               const IndexFlatI16 *rows = nullptr);

    size_t numLists() const { return offsets_.size() - 1; }
    size_t dim() const { return dim_; }
    size_t numChunks() const { return assign_.size(); }

    /** Centroid table, numLists x dim, int16 (device-stageable). */
    const std::vector<int16_t> &centroids() const { return centroids_; }

    /** Exact inner product of `query` with list's centroid. */
    int64_t centroidDot(const int16_t *query, size_t list) const;

    /**
     * The `nprobe` list ids to scan for `query`, ordered by centroid
     * score descending (ties: lower list id first). `nprobe` is
     * clamped to numLists; nprobe == 0 returns an empty selection
     * (callers treat 0 as "exhaustive, don't probe").
     */
    std::vector<uint32_t> selectProbes(const int16_t *query,
                                       size_t nprobe) const;

    /** List extents: list l owns order()[offsets[l] .. offsets[l+1]). */
    const std::vector<uint64_t> &listOffsets() const { return offsets_; }

    /** Spec-local chunk ids, list-major, ascending within a list. */
    const std::vector<uint32_t> &order() const { return order_; }

    /** List owning spec-local chunk id `local`. */
    uint32_t listOf(uint32_t local) const { return assign_[local]; }

    size_t
    listSize(size_t list) const
    {
        return static_cast<size_t>(offsets_[list + 1] -
                                   offsets_[list]);
    }

  private:
    size_t dim_ = 0;
    std::vector<int16_t> centroids_; ///< numLists x dim
    std::vector<uint64_t> offsets_;  ///< numLists + 1
    std::vector<uint32_t> order_;    ///< numChunks permutation
    std::vector<uint32_t> assign_;   ///< chunk -> list
};

/**
 * Exhaustive filtered scan over a flat index: top-k among chunks
 * whose metadata label passes `filter_mask` (kFilterAll = no
 * filtering). Hit ids are spec-local; labels are keyed by global
 * chunk id (spec.firstChunk + local), matching the device path.
 */
std::vector<Hit> searchFilteredFlat(const IndexFlatI16 &flat,
                                    const RagCorpusSpec &spec,
                                    uint64_t seed,
                                    const int16_t *query, size_t k,
                                    uint16_t filter_mask = kFilterAll);

/**
 * IVF search over an existing flat index: the CPU golden twin of the
 * device's probe-restricted path. Scans only the chunks in the
 * `nprobe` selected lists (nprobe == 0 means exhaustive), applying
 * the same metadata filter as the device mask-AND. Same tie rule as
 * every other producer (hitWorseThan), so `nprobe = numLists`
 * answers bit-compare with searchFilteredFlat.
 */
class IndexIvfI16
{
  public:
    IndexIvfI16(const IndexFlatI16 &flat,
                const IvfClustering &clustering,
                const RagCorpusSpec &spec, uint64_t seed)
        : flat_(flat), clustering_(clustering), spec_(spec),
          seed_(seed)
    {}

    const IvfClustering &clustering() const { return clustering_; }

    std::vector<Hit> search(const int16_t *query, size_t k,
                            size_t nprobe,
                            uint16_t filter_mask = kFilterAll) const;

  private:
    const IndexFlatI16 &flat_;
    const IvfClustering &clustering_;
    const RagCorpusSpec &spec_;
    uint64_t seed_;
};

} // namespace cisram::baseline

#endif // CISRAM_BASELINE_IVF_HH
