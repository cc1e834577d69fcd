/**
 * @file
 * FAISS-lite: exact nearest-neighbour search on the CPU.
 *
 * The paper's CPU baseline runs FAISS IndexFlat exact inner-product
 * search with AVX512 and OpenMP (Section 5.3.2). This module
 * reimplements that functionality: a flat index over dense vectors
 * with exact top-k inner-product (and L2) search, single-threaded or
 * partitioned across std::thread workers with per-thread heaps and a
 * final merge. It serves as the golden reference for the APU
 * retrieval kernels and as the functional CPU baseline.
 */

#ifndef CISRAM_BASELINE_FAISSLITE_HH
#define CISRAM_BASELINE_FAISSLITE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "baseline/golden.hh"
#include "baseline/workloads.hh"
#include "common/status.hh"

namespace cisram::baseline {

/** One search hit. */
struct Hit
{
    float score;
    size_t id;

    bool
    operator==(const Hit &o) const
    {
        return score == o.score && id == o.id;
    }
};

/** Similarity metric. */
enum class Metric { InnerProduct, L2 };

/**
 * The one tie rule every answer producer must share: higher score is
 * better; on equal scores the *smaller* id wins. Exposed (rather than
 * file-local) so the IVF index, the fleet k-way merge, and tests all
 * compare against the same boundary behaviour — a divergent tie rule
 * only becomes observable once probing changes which ties reach the
 * k boundary, which is exactly when bit-compare gates must not lie.
 */
bool hitWorseThan(const Hit &a, const Hit &b);

/** Push into a bounded best-k heap ordered by hitWorseThan. */
void hitHeapPush(std::vector<Hit> &heap, size_t k, Hit h);

/** Sort hits best-first (score desc, id asc on ties). */
void hitFinalize(std::vector<Hit> &hits);

/** Merge several bounded heaps into one top-k list. */
std::vector<Hit> mergeHitHeaps(std::vector<std::vector<Hit>> &parts,
                               size_t k);

/**
 * Exact top-k for a block of queries over a stream of candidate
 * rows: one bounded heap per query, tie rule hitWorseThan. Rows
 * queue through add() and are scored kRowBlock at a time by
 * dotBlock(), so the working set is one row block whatever the
 * corpus size, and each row is read once for the whole block of
 * queries. The push order of rows never changes the answer: ids are
 * distinct and hitWorseThan is a total order on them.
 */
class TopKBlock
{
  public:
    /** Rows per dotBlock() call. */
    static constexpr size_t kRowBlock = 64;

    /**
     * `queries` (nq x dim) must outlive this object and each be
     * within the exactness budget (withinDotBudget).
     */
    TopKBlock(const int16_t *queries, size_t nq, size_t dim,
              size_t k);

    /**
     * Queue `row` as candidate `id`. `row` must stay valid until
     * the block is scored: by the add() that fills it, or by
     * finish().
     */
    void add(const int16_t *row, size_t id);

    /** Score what is queued, then each query's hits best-first. */
    std::vector<std::vector<Hit>> finish();

  private:
    /** Score the queued rows against every query. */
    void flush();

    const int16_t *queries_;
    size_t nq_, dim_, k_;
    std::array<const int16_t *, kRowBlock> rows_{};
    std::array<size_t, kRowBlock> ids_{};
    size_t pending_ = 0;
    std::vector<int32_t> scores_;
    std::vector<std::vector<Hit>> heaps_;
};

/**
 * Flat (brute-force, exact) index over dense float vectors.
 *
 * Deterministic tie-breaking: equal scores order by ascending id.
 */
class IndexFlat
{
  public:
    IndexFlat(size_t dim, Metric metric = Metric::InnerProduct)
        : dim_(dim), metric_(metric)
    {}

    size_t dim() const { return dim_; }
    size_t size() const { return count; }
    Metric metric() const { return metric_; }

    /** Append `n` vectors (row-major, n x dim). */
    void add(const float *vecs, size_t n);

    /** Exact top-k for one query; k is clamped to size(). */
    std::vector<Hit> search(const float *query, size_t k,
                            unsigned threads = 1) const;

    /** Raw score of one stored vector against a query. */
    float score(const float *query, size_t id) const;

  private:
    /** Scan ids [lo, hi) into a caller-provided heap vector. */
    void scanRange(const float *query, size_t k, size_t lo, size_t hi,
                   std::vector<Hit> &heap) const;

    size_t dim_;
    Metric metric_;
    size_t count = 0;
    std::vector<float> data;
};

/**
 * Flat index over int16 embeddings (the APU's native format),
 * scored through dotBlock() and reporting float scores. Used to
 * cross-check the APU retrieval kernel bit-for-bit.
 */
class IndexFlatI16
{
  public:
    explicit IndexFlatI16(size_t dim) : dim_(dim) {}

    size_t dim() const { return dim_; }
    size_t size() const { return count; }

    /**
     * Append `n` vectors (n x dim). Each row is checked against the
     * exactness budget here, once; if any row is outside it the
     * index is left unchanged and InvalidArgument is returned, so
     * no later dot can overflow the int32 accumulator.
     */
    Status add(const int16_t *vecs, size_t n);

    /** Exact top-k by inner product; ties by ascending id. */
    std::vector<Hit> search(const int16_t *query, size_t k,
                            unsigned threads = 1) const;

    /** Exact inner product of a stored vector against a query. */
    int64_t dot(const int16_t *query, size_t id) const;

    /** Stored row `id` (dim elements). */
    const int16_t *
    row(size_t id) const
    {
        return data.data() + id * dim_;
    }

    const std::vector<int16_t> &raw() const { return data; }

  private:
    size_t dim_;
    size_t count = 0;
    std::vector<int16_t> data;
};

/**
 * Exact top-k of a block of queries over a (possibly
 * epoch-overlaid) hash-generated corpus slice. This is the golden
 * twin of the device's epoch-aware retrieval, and it stays
 * independent of it: rows are regenerated from the hash, never read
 * from staged planes or device buffers.
 *
 * The view (live chunks passing `filter_mask`) is materialized once
 * for the whole block, in TopKBlock::kRowBlock-row blocks, so memory
 * stays one row block whatever the corpus size. Tombstoned chunks
 * are skipped, inserted chunks scanned at their overlay positions,
 * and ids returned spec-LOCAL (matching searchFilteredFlat; local ==
 * global when firstChunk is 0 and no view is armed). Scores are
 * exact inner products reported as float, tie rule hitWorseThan — so
 * hits bit-compare against the APU path. `queries` is nq x
 * spec.dim; result q answers query q.
 */
std::vector<std::vector<Hit>>
searchEpochFlatBatch(const RagCorpusSpec &spec, uint64_t corpus_seed,
                     const int16_t *queries, size_t nq, size_t k,
                     uint16_t filter_mask = kFilterAll);

/** searchEpochFlatBatch for one query. */
std::vector<Hit> searchEpochFlat(const RagCorpusSpec &spec,
                                 uint64_t corpus_seed,
                                 const int16_t *query, size_t k,
                                 uint16_t filter_mask = kFilterAll);

} // namespace cisram::baseline

#endif // CISRAM_BASELINE_FAISSLITE_HH
