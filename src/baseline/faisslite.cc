#include "baseline/faisslite.hh"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.hh"

namespace cisram::baseline {

/** Heap ordering: keep the k *best*; worst-of-the-best at the top. */
bool
hitWorseThan(const Hit &a, const Hit &b)
{
    if (a.score != b.score)
        return a.score < b.score;
    return a.id > b.id; // larger id is worse on ties
}

/** Push into a bounded max-k heap. */
void
hitHeapPush(std::vector<Hit> &heap, size_t k, Hit h)
{
    auto cmp = [](const Hit &a, const Hit &b) {
        return !hitWorseThan(a, b); // min-heap on "goodness"
    };
    if (heap.size() < k) {
        heap.push_back(h);
        std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (hitWorseThan(heap.front(), h)) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.back() = h;
        std::push_heap(heap.begin(), heap.end(), cmp);
    }
}

/** Sort hits best-first with deterministic tie-breaking. */
void
hitFinalize(std::vector<Hit> &hits)
{
    std::sort(hits.begin(), hits.end(), [](const Hit &a, const Hit &b) {
        return hitWorseThan(b, a);
    });
}

/** Merge per-thread heaps into one top-k list. */
std::vector<Hit>
mergeHitHeaps(std::vector<std::vector<Hit>> &parts, size_t k)
{
    std::vector<Hit> all;
    for (auto &p : parts)
        all.insert(all.end(), p.begin(), p.end());
    hitFinalize(all);
    if (all.size() > k)
        all.resize(k);
    return all;
}

void
IndexFlat::add(const float *vecs, size_t n)
{
    data.insert(data.end(), vecs, vecs + n * dim_);
    count += n;
}

float
IndexFlat::score(const float *query, size_t id) const
{
    cisram_assert(id < count, "vector id OOB");
    const float *v = data.data() + id * dim_;
    if (metric_ == Metric::InnerProduct) {
        float s = 0.0f;
        for (size_t d = 0; d < dim_; ++d)
            s += query[d] * v[d];
        return s;
    }
    float s = 0.0f;
    for (size_t d = 0; d < dim_; ++d) {
        float diff = query[d] - v[d];
        s += diff * diff;
    }
    return -s; // higher is better, uniformly
}

void
IndexFlat::scanRange(const float *query, size_t k, size_t lo,
                     size_t hi, std::vector<Hit> &heap) const
{
    for (size_t id = lo; id < hi; ++id)
        hitHeapPush(heap, k, {score(query, id), id});
}

std::vector<Hit>
IndexFlat::search(const float *query, size_t k,
                  unsigned threads) const
{
    k = std::min(k, count);
    if (k == 0)
        return {};
    if (threads <= 1) {
        std::vector<Hit> heap;
        heap.reserve(k + 1);
        scanRange(query, k, 0, count, heap);
        hitFinalize(heap);
        return heap;
    }
    unsigned nt = std::min<unsigned>(
        threads, static_cast<unsigned>(std::max<size_t>(1, count)));
    std::vector<std::vector<Hit>> parts(nt);
    std::vector<std::thread> workers;
    size_t stride = (count + nt - 1) / nt;
    for (unsigned t = 0; t < nt; ++t) {
        size_t lo = t * stride;
        size_t hi = std::min(count, lo + stride);
        workers.emplace_back([&, t, lo, hi] {
            parts[t].reserve(k + 1);
            scanRange(query, k, lo, hi, parts[t]);
        });
    }
    for (auto &w : workers)
        w.join();
    return mergeHitHeaps(parts, k);
}

TopKBlock::TopKBlock(const int16_t *queries, size_t nq, size_t dim,
                     size_t k)
    : queries_(queries), nq_(nq), dim_(dim), k_(k),
      scores_(nq * kRowBlock), heaps_(nq)
{
    for (size_t q = 0; q < nq_; ++q) {
        cisram_assert(withinDotBudget(queries_ + q * dim_, dim_),
                      "golden: query ", q,
                      " is outside the exactness budget");
        heaps_[q].reserve(k_ + 1);
    }
}

void
TopKBlock::add(const int16_t *row, size_t id)
{
    if (k_ == 0)
        return;
    rows_[pending_] = row;
    ids_[pending_] = id;
    if (++pending_ == kRowBlock)
        flush();
}

void
TopKBlock::flush()
{
    if (pending_ == 0)
        return;
    size_t n = pending_;
    pending_ = 0;
    dotBlock(queries_, nq_, rows_.data(), n, dim_, scores_.data());
    for (size_t q = 0; q < nq_; ++q) {
        const int32_t *s = scores_.data() + q * n;
        for (size_t r = 0; r < n; ++r)
            hitHeapPush(heaps_[q], k_,
                        {static_cast<float>(s[r]), ids_[r]});
    }
}

std::vector<std::vector<Hit>>
TopKBlock::finish()
{
    flush();
    for (auto &h : heaps_)
        hitFinalize(h);
    return std::move(heaps_);
}

Status
IndexFlatI16::add(const int16_t *vecs, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (!withinDotBudget(vecs + i * dim_, dim_))
            return Status::invalidArgument(
                "row " + std::to_string(i) +
                " is outside the exactness budget");
    data.insert(data.end(), vecs, vecs + n * dim_);
    count += n;
    return Status::okStatus();
}

int64_t
IndexFlatI16::dot(const int16_t *query, size_t id) const
{
    cisram_assert(id < count, "vector id OOB");
    const int16_t *v = row(id);
    int32_t s = 0;
    dotBlock(query, 1, &v, 1, dim_, &s);
    return s;
}

std::vector<Hit>
IndexFlatI16::search(const int16_t *query, size_t k,
                     unsigned threads) const
{
    k = std::min(k, count);
    if (k == 0)
        return {};
    auto scan = [&](size_t lo, size_t hi) {
        TopKBlock top(query, 1, dim_, k);
        for (size_t id = lo; id < hi; ++id)
            top.add(row(id), id);
        return std::move(top.finish()[0]);
    };
    if (threads <= 1)
        return scan(0, count);
    unsigned nt = std::min<unsigned>(
        threads, static_cast<unsigned>(std::max<size_t>(1, count)));
    std::vector<std::vector<Hit>> parts(nt);
    std::vector<std::thread> workers;
    size_t stride = (count + nt - 1) / nt;
    for (unsigned t = 0; t < nt; ++t) {
        size_t lo = t * stride;
        size_t hi = std::min(count, lo + stride);
        workers.emplace_back(
            [&, t, lo, hi] { parts[t] = scan(lo, hi); });
    }
    for (auto &w : workers)
        w.join();
    return mergeHitHeaps(parts, k);
}

std::vector<std::vector<Hit>>
searchEpochFlatBatch(const RagCorpusSpec &spec, uint64_t corpus_seed,
                     const int16_t *queries, size_t nq, size_t k,
                     uint16_t filter_mask)
{
    if (spec.epochView) {
        cisram_assert(spec.numChunks ==
                          spec.epochView->baseChunks +
                              spec.epochView->inserted.size(),
                      "epoch view / spec chunk count mismatch");
    }
    TopKBlock top(queries, nq, spec.dim, k);
    // One row block of the view at a time; add() scores the block as
    // it fills, which frees the buffer for the next rows.
    std::vector<int16_t> block(TopKBlock::kRowBlock * spec.dim);
    size_t fill = 0;
    for (size_t local = 0; local < spec.numChunks; ++local) {
        if (!spec.chunkLive(local))
            continue;
        uint64_t chunk = spec.globalChunk(local);
        if (filter_mask != kFilterAll &&
            !passesFilter(filter_mask, chunkLabel(chunk, corpus_seed)))
            continue;
        int16_t *row = block.data() + fill * spec.dim;
        genEmbeddingRow(spec, chunk, corpus_seed, row);
        cisram_assert(withinDotBudget(row, spec.dim), "golden: chunk ",
                      chunk, " is outside the exactness budget");
        top.add(row, local);
        if (++fill == TopKBlock::kRowBlock)
            fill = 0;
    }
    return top.finish();
}

std::vector<Hit>
searchEpochFlat(const RagCorpusSpec &spec, uint64_t corpus_seed,
                const int16_t *query, size_t k, uint16_t filter_mask)
{
    return std::move(searchEpochFlatBatch(spec, corpus_seed, query, 1,
                                          k, filter_mask)[0]);
}

} // namespace cisram::baseline
