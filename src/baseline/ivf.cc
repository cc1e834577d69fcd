#include "baseline/ivf.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hh"

namespace cisram::baseline {

namespace {

/**
 * out[r] = argmax_j dot(rows[r], centroid_j) for `n` rows, scored
 * through dotBlock with the centroids as the query block. Strict
 * greater: ties keep the lowest list id.
 */
void
assignBlock(const std::vector<int16_t> &centroids, size_t k,
            const int16_t *const *rows, size_t n, size_t dim,
            std::vector<int32_t> &scores, uint32_t *out)
{
    dotBlock(centroids.data(), k, rows, n, dim, scores.data());
    for (size_t r = 0; r < n; ++r) {
        uint32_t best = 0;
        int32_t bestScore = scores[r];
        for (size_t j = 1; j < k; ++j) {
            int32_t s = scores[j * n + r];
            if (s > bestScore) {
                bestScore = s;
                best = static_cast<uint32_t>(j);
            }
        }
        out[r] = best;
    }
}

} // namespace

IvfClustering
IvfClustering::build(const RagCorpusSpec &spec, uint64_t seed,
                     const IvfBuildConfig &cfg, const IndexFlatI16 *rows)
{
    cisram_assert(spec.numChunks > 0, "empty corpus");
    cisram_assert(!rows || (rows->size() == spec.numChunks &&
                            rows->dim() == spec.dim),
                  "ivf: row index does not match the corpus spec");
    size_t dim = spec.dim;

    // Row `local` of the corpus: read from `rows`, which checked
    // every row against the exactness budget when it was built, or
    // generated into row `slot` of `buf` and checked here.
    auto row = [&](size_t local, std::vector<int16_t> &buf,
                   size_t slot) -> const int16_t * {
        if (rows)
            return rows->row(local);
        int16_t *out = buf.data() + slot * dim;
        genEmbeddingRow(spec, spec.firstChunk + local, seed, out);
        cisram_assert(withinDotBudget(out, dim), "ivf: chunk ",
                      spec.firstChunk + local,
                      " is outside the exactness budget");
        return out;
    };
    size_t k = std::max<size_t>(
        1, std::min(cfg.numLists, spec.numChunks));

    // Fixed-stride training sample: deterministic and spread across
    // the whole id range (topics are hash-assigned, so a stride is as
    // unbiased as a shuffle without needing RNG state).
    size_t sampleCount =
        std::max(k, std::min(cfg.trainSample, spec.numChunks));
    sampleCount = std::min(sampleCount, spec.numChunks);
    size_t stride = spec.numChunks / sampleCount;
    std::vector<int16_t> sample(rows ? 0 : sampleCount * dim);
    std::vector<const int16_t *> samplePtr(sampleCount);
    for (size_t i = 0; i < sampleCount; ++i)
        samplePtr[i] = row(i * stride, sample, i);

    // Init: evenly strided sample rows as the first centroids.
    IvfClustering cl;
    cl.dim_ = dim;
    cl.centroids_.resize(k * dim);
    for (size_t j = 0; j < k; ++j) {
        const int16_t *init = samplePtr[j * sampleCount / k];
        std::copy(init, init + dim, cl.centroids_.begin() + j * dim);
    }

    // Lloyd: max-IP assignment (the Phoenix kmeansApu idiom — the
    // device scores candidates by inner product, so training with the
    // same affinity keeps probe selection aligned with what the
    // distance kernel will actually compute), rounded-mean update.
    // Centroids are means of in-budget rows, so their elements stay
    // in [-kMaxElement, kMaxElement] and every dot with a row stays
    // exact.
    constexpr size_t kBlock = TopKBlock::kRowBlock;
    std::vector<int32_t> scores(k * kBlock);
    std::vector<uint32_t> assign(sampleCount);
    std::vector<int64_t> sums(k * dim);
    std::vector<size_t> counts(k);
    for (size_t it = 0; it < cfg.iterations; ++it) {
        for (size_t i = 0; i < sampleCount; i += kBlock)
            assignBlock(cl.centroids_, k, samplePtr.data() + i,
                        std::min(kBlock, sampleCount - i), dim,
                        scores, assign.data() + i);
        std::fill(sums.begin(), sums.end(), 0);
        std::fill(counts.begin(), counts.end(), 0);
        for (size_t i = 0; i < sampleCount; ++i) {
            const int16_t *row = samplePtr[i];
            size_t j = assign[i];
            ++counts[j];
            for (size_t d = 0; d < dim; ++d)
                sums[j * dim + d] += row[d];
        }
        for (size_t j = 0; j < k; ++j) {
            if (counts[j] == 0)
                continue; // empty list keeps its old centroid
            for (size_t d = 0; d < dim; ++d)
                cl.centroids_[j * dim + d] =
                    static_cast<int16_t>(std::llround(
                        static_cast<double>(sums[j * dim + d]) /
                        static_cast<double>(counts[j])));
        }
    }

    // Final assignment of every chunk, one generated row block at a
    // time, then list arrays. Scanning chunks in ascending id order
    // makes ids ascend within each list — the device path's
    // per-supertile top-k extraction is only tie-exact under that
    // ordering.
    cl.assign_.resize(spec.numChunks);
    std::vector<int16_t> block(rows ? 0 : kBlock * dim);
    std::array<const int16_t *, kBlock> blockPtr;
    for (size_t c0 = 0; c0 < spec.numChunks; c0 += kBlock) {
        size_t n = std::min(kBlock, spec.numChunks - c0);
        for (size_t r = 0; r < n; ++r)
            blockPtr[r] = row(c0 + r, block, r);
        assignBlock(cl.centroids_, k, blockPtr.data(), n, dim, scores,
                    cl.assign_.data() + c0);
    }
    std::vector<uint64_t> listCounts(k, 0);
    for (uint32_t j : cl.assign_)
        ++listCounts[j];
    cl.offsets_.assign(k + 1, 0);
    for (size_t j = 0; j < k; ++j)
        cl.offsets_[j + 1] = cl.offsets_[j] + listCounts[j];
    cl.order_.resize(spec.numChunks);
    std::vector<uint64_t> cursor(cl.offsets_.begin(),
                                 cl.offsets_.end() - 1);
    for (size_t c = 0; c < spec.numChunks; ++c)
        cl.order_[cursor[cl.assign_[c]]++] =
            static_cast<uint32_t>(c);
    return cl;
}

int64_t
IvfClustering::centroidDot(const int16_t *query, size_t list) const
{
    cisram_assert(list < numLists(), "list id OOB");
    const int16_t *c = centroids_.data() + list * dim_;
    int32_t s = 0;
    dotBlock(query, 1, &c, 1, dim_, &s);
    return s;
}

std::vector<uint32_t>
IvfClustering::selectProbes(const int16_t *query,
                            size_t nprobe) const
{
    // Hit's tie rule (score desc, id asc) is exactly the probe
    // ordering contract, so the probes are the query's top-nprobe
    // centroids.
    TopKBlock top(query, 1, dim_, std::min(nprobe, numLists()));
    for (size_t j = 0; j < numLists(); ++j)
        top.add(centroids_.data() + j * dim_, j);
    std::vector<Hit> best = std::move(top.finish()[0]);
    std::vector<uint32_t> probes(best.size());
    for (size_t j = 0; j < best.size(); ++j)
        probes[j] = static_cast<uint32_t>(best[j].id);
    return probes;
}

std::vector<Hit>
searchFilteredFlat(const IndexFlatI16 &flat,
                   const RagCorpusSpec &spec, uint64_t seed,
                   const int16_t *query, size_t k,
                   uint16_t filter_mask)
{
    TopKBlock top(query, 1, flat.dim(), k);
    for (size_t id = 0; id < flat.size(); ++id) {
        if (filter_mask != kFilterAll &&
            !passesFilter(filter_mask,
                          chunkLabel(spec.firstChunk + id, seed)))
            continue;
        top.add(flat.row(id), id);
    }
    return std::move(top.finish()[0]);
}

std::vector<Hit>
IndexIvfI16::search(const int16_t *query, size_t k, size_t nprobe,
                    uint16_t filter_mask) const
{
    if (nprobe == 0) // exhaustive mode: no coarse quantization
        return searchFilteredFlat(flat_, spec_, seed_, query, k,
                                  filter_mask);
    cisram_assert(flat_.size() == clustering_.numChunks(),
                  "clustering / index size mismatch");
    TopKBlock top(query, 1, flat_.dim(), k);
    const auto &offsets = clustering_.listOffsets();
    const auto &order = clustering_.order();
    for (uint32_t list : clustering_.selectProbes(query, nprobe)) {
        for (uint64_t p = offsets[list]; p < offsets[list + 1]; ++p) {
            size_t id = order[p];
            if (filter_mask != kFilterAll &&
                !passesFilter(filter_mask,
                              chunkLabel(spec_.firstChunk + id,
                                         seed_)))
                continue;
            top.add(flat_.row(id), id);
        }
    }
    return std::move(top.finish()[0]);
}

} // namespace cisram::baseline
