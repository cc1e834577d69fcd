#include "kernels/rag.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/gsifloat.hh"
#include "common/logging.hh"
#include "gvml/gvml.hh"

namespace cisram::kernels {

using apu::ApuCore;
using apu::ApuDevice;
using apu::ScopedRepeat;
using baseline::Hit;
using baseline::RagCorpusSpec;
using gvml::Gvml;
using gvml::Vmr;
using gvml::Vr;

const char *
ragVariantName(RagVariant v)
{
    switch (v) {
      case RagVariant::NoOpt:
        return "no-opt";
      case RagVariant::Opt1:
        return "opt1";
      case RagVariant::Opt2:
        return "opt2";
      case RagVariant::Opt3:
        return "opt3";
      case RagVariant::AllOpts:
        return "all-opts";
    }
    return "?";
}

namespace {

constexpr Vr vrEmb{0}, vrQ{1}, vrT{2}, vrAcc{3}, vrBias{4},
    vrQfull{5}, vrAdmit{6};
constexpr Vmr vmStage{0}, vmAdmit{1};

/** Fixed CP/host cost of returning the top-k over the RSP FIFO. */
constexpr double returnTopkCycles = 7000.0;

/** CP merge cost per score-VR candidate set. */
constexpr double mergeCyclesPerVr = 100.0;

/**
 * On-chip ingest handshake for one streamed 64 KiB tile: DMA chain
 * setup plus the L2 -> L1 wide move. The stream itself runs at the
 * simulated HBM rate (timed separately); coalesced descriptor
 * chains (opt2) amortize the chain setup over two tiles.
 */
double
ingestCycles(const apu::TimingParams &t, bool coalesce)
{
    double init = static_cast<double>(t.move.dmaL4L2Init);
    if (coalesce)
        init /= 2.0;
    return init + t.control.dmaDescriptor + t.move.dmaL2L1;
}

/** Lane encodings of an int16 embedding element. */
uint16_t
encodeS16(int16_t v)
{
    return static_cast<uint16_t>(v);
}

uint16_t
encodeGf16(int16_t v)
{
    return GsiFloat16::fromFloat(static_cast<float>(v)).bits();
}

/** Rows of `n` chunks (n x dim); row j is global chunk chunk_at(j). */
template <typename ChunkAt>
std::vector<int16_t>
genRows(const RagCorpusSpec &corpus, uint64_t seed, size_t n,
        ChunkAt chunk_at)
{
    std::vector<int16_t> rows(n * corpus.dim);
    for (size_t j = 0; j < n; ++j)
        baseline::genEmbeddingRow(corpus, chunk_at(j), seed,
                                  rows.data() + j * corpus.dim);
    return rows;
}

/**
 * The functional stager: write `n` rows (n x dim) as one supertile's
 * dim planes at `addr`, dimension-major and live lanes only: plane d
 * is the n u16 at addr + d * n * 2. The caller's block keeps room for
 * dim full planes, so device-DRAM accounting is that of the padded
 * layout; streamPlane supplies the zero tail.
 */
void
stageRows(ApuDevice &dev, const int16_t *rows, size_t n, size_t dim,
          uint64_t addr, uint16_t (*encode)(int16_t) = encodeS16)
{
    std::vector<uint16_t> planes(n * dim);
    for (size_t j = 0; j < n; ++j)
        for (size_t d = 0; d < dim; ++d)
            planes[d * n + j] = encode(rows[j * dim + d]);
    dev.l4().write(addr, planes.data(), planes.size() * 2);
}

/**
 * The admit plane of one supertile at `addr`: live lane j < n is 1
 * iff admit(j). Padding lanes read back as 0, so a ragged tail can
 * never outrank real (possibly negative) scores with its
 * biased-zero dot products.
 */
template <typename Admit>
void
stageAdmit(ApuDevice &dev, size_t n, Admit admit, uint64_t addr)
{
    std::vector<uint16_t> plane(n);
    for (size_t j = 0; j < n; ++j)
        plane[j] = admit(j) ? 1 : 0;
    dev.l4().write(addr, plane.data(), n * 2);
}

/**
 * Stream one staged plane into VMR `vm`: its `live` lanes from L4,
 * a zero tail beyond. The caller charges the ingest (ingestCycles).
 */
void
streamPlane(ApuCore &core, Vmr vm, uint64_t addr, size_t live)
{
    core.device().l4().read(
        addr, core.l1().lanes(vm.idx).reshape(live, 0), live * 2);
}

/** Run a shape-invariant loop: all iterations in Functional mode,
 * one accounted iteration times n otherwise. */
template <typename Fn>
void
timedLoop(ApuCore &core, size_t n, Fn fn)
{
    if (n == 0)
        return;
    if (core.functional()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
    } else {
        ScopedRepeat rep(core.stats(), static_cast<double>(n));
        fn(0);
    }
}

/** Accumulator VR of batch lane `q` (VRs 8..15). */
Vr
accVr(size_t q)
{
    return Vr(8 + static_cast<unsigned>(q));
}

/**
 * Score one supertile for the batch lanes `qs` of `queries`: zero
 * their accumulators, stream its dim planes (`valid` live lanes,
 * staged at `emb_addr` by stageRows) through the fused MAC, then
 * load its admit plane from `adm_addr` into vrAdmit.
 */
void
scoreSupertile(Gvml &g, const std::vector<std::vector<int16_t>> &queries,
               const std::vector<size_t> &qs, uint64_t emb_addr,
               uint64_t adm_addr, size_t valid)
{
    ApuCore &core = g.core();
    const auto &t = core.timing();
    std::vector<Vr> accs;
    for (size_t q : qs) {
        g.cpyImm16(accVr(q), 0);
        accs.push_back(accVr(q));
    }
    timedLoop(core, queries[0].size(), [&](size_t d) {
        core.chargeRaw(ingestCycles(t, true));
        if (core.functional())
            streamPlane(core, vmStage, emb_addr + d * valid * 2, valid);
        g.load16(vrEmb, vmStage);
        uint16_t imms[8];
        for (size_t i = 0; i < qs.size(); ++i)
            imms[i] = static_cast<uint16_t>(queries[qs[i]][d]);
        g.macImmS16(vrEmb, vrQ, vrT, accs.data(), imms, qs.size());
    });
    core.chargeRaw(ingestCycles(t, true));
    if (core.functional())
        streamPlane(core, vmAdmit, adm_addr, valid);
    g.load16(vrAdmit, vmAdmit);
}

/** Stage timing helper: capture cycle deltas. */
struct StageTimer
{
    explicit StageTimer(ApuCore &core) : core(core) {}

    double
    lap()
    {
        double now = core.stats().cycles();
        double delta = now - last;
        last = now;
        return delta;
    }

    ApuCore &core;
    double last = 0.0;
};

/** Merge per-VR candidates into the global top-k. */
std::vector<Hit>
mergeHits(std::vector<Hit> all, size_t k)
{
    std::sort(all.begin(), all.end(), [](const Hit &a, const Hit &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.id < b.id;
    });
    if (all.size() > k)
        all.resize(k);
    return all;
}

/** Biased-u16 score back to a signed dot product. */
float
unbias(uint16_t biased)
{
    return static_cast<float>(
        static_cast<int16_t>(biased ^ 0x8000));
}

/**
 * Extract the top-k of the score VR (biased u16) with the
 * associative max search, clearing each winner. Returns candidates
 * with VR-local indices; charges accrue to the caller's ledger.
 */
std::vector<Hit>
extractTopK(Gvml &g, ApuCore &core, Vr score, size_t k,
            size_t valid_elems)
{
    std::vector<Hit> out;
    for (size_t i = 0; i < k; ++i) {
        auto mx = g.maxIndexU16(score);
        core.rspSet(score.idx, core.functional() ? mx.index : 0, 0);
        if (core.functional() && mx.index < valid_elems &&
            mx.value != 0) {
            out.push_back({unbias(mx.value), mx.index});
        }
    }
    core.chargeRaw(mergeCyclesPerVr);
    return out;
}

/**
 * Seconds of the embedding stream hidden by double-buffered
 * streaming (RagBatchOptions::overlapStream) over an n-supertile
 * pass. With per-supertile stream time ps = stream/n and compute
 * pc = calc/n, the overlapped schedule costs
 *   stream/n + (n-1)*max(ps, pc) + calc/n + n*sync
 * so the hidden portion is
 *   hidden = stream + calc - overlapped
 *          = (n-1)*min(ps, pc) - n*sync       (clamped at 0).
 * Bound — why RagStageLatency::total()'s unclamped subtraction is
 * safe at any n: (n-1)*min(ps, pc) <= (n-1)*ps < n*ps = stream, and
 * symmetrically < calc; subtracting the sync term only shrinks it.
 * In particular a single ragged supertile (n = 1, the common case
 * for IVF's short probe-restricted streams) hides exactly 0.
 */
double
overlapHiddenSeconds(ApuDevice &dev, const apu::TimingParams &t,
                     double stream_s, double calc_s,
                     size_t supertiles)
{
    if (supertiles == 0)
        return 0.0;
    double n = static_cast<double>(supertiles);
    double per_stream = stream_s / n;
    double per_calc = calc_s / n;
    double sync =
        dev.cyclesToSeconds(
            static_cast<double>(t.move.pipeSyncL4L1)) *
        n;
    double overlapped = per_stream +
        (n - 1.0) * std::max(per_stream, per_calc) + per_calc +
        sync;
    double hidden = std::max(0.0, stream_s + calc_s - overlapped);
    cisram_assert(hidden <= stream_s && hidden <= calc_s,
                  "overlap hides more than a stage it overlaps");
    return hidden;
}

} // namespace

RagRetriever::RagRetriever(ApuDevice &dev, dram::DramSystem &hbm,
                           RagCorpusSpec corpus, size_t top_k,
                           unsigned core_idx)
    : dev(dev), hbm(hbm), corpus_(corpus), topK(top_k),
      coreIdx_(core_idx)
{
    cisram_assert(top_k >= 1 && top_k <= 64, "unreasonable top-k");
    cisram_assert(isPow2(dev.spec().vrLength));
    cisram_assert(core_idx < dev.numCores(), "core index OOB");
    // The return-topk stage stages result ids here (one slot per
    // batch lane) for the host to read back over PCIe.
    idsAddr_ = dev.allocator().alloc(
        8 * topK * sizeof(uint32_t), 512);
    shard_.ext = {0, corpus_.numChunks};
}

RagRetriever::~RagRetriever()
{
    for (const ResidentPlanes *rp : {&shard_, &lists_})
        if (!rp->first.empty())
            dev.allocator().free(rp->addr);
    if (ivf_)
        dev.allocator().free(centAddr_);
    dev.allocator().free(idsAddr_);
}

uint64_t
RagRetriever::residentSegment(ResidentPlanes &rp, size_t s,
                              uint64_t corpus_seed)
{
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    if (rp.first.empty()) {
        rp.first.assign(1, 0);
        for (size_t i = 0; i + 1 < rp.ext.size(); ++i)
            rp.first.push_back(rp.first.back() +
                               divCeil(rp.ext[i + 1] - rp.ext[i], l));
        rp.addr = dev.allocator().alloc(
            rp.first.back() * dim * l * 2, 512);
    }
    if (rp.staged.empty() || rp.seed != corpus_seed) {
        rp.staged.assign(rp.ext.size() - 1, false);
        rp.seed = corpus_seed;
    }
    uint64_t base = rp.addr + rp.first[s] * dim * l * 2;
    if (rp.staged[s])
        return base;
    rp.staged[s] = true;
    stagedRows_ += rp.ext[s + 1] - rp.ext[s];
    uint64_t at = base;
    for (uint64_t p0 = rp.ext[s]; p0 < rp.ext[s + 1];
         p0 += l, at += dim * l * 2) {
        size_t valid = std::min<uint64_t>(l, rp.ext[s + 1] - p0);
        auto rows = genRows(corpus_, corpus_seed, valid, [&](size_t j) {
            return corpus_.globalChunk(rp.local(p0 + j));
        });
        stageRows(dev, rows.data(), valid, dim, at);
    }
    return base;
}

uint64_t
RagRetriever::admitPlanes(const ResidentPlanes &rp,
                          const std::vector<uint32_t> &segs,
                          uint16_t filter, uint64_t corpus_seed)
{
    size_t l = dev.spec().vrLength;
    size_t supertiles = 0;
    for (uint32_t s : segs)
        supertiles += rp.first[s + 1] - rp.first[s];
    uint64_t addr = dev.allocator().alloc(supertiles * l * 2, 512);
    uint64_t at = addr;
    for (uint32_t s : segs) {
        for (uint64_t p0 = rp.ext[s]; p0 < rp.ext[s + 1];
             p0 += l, at += l * 2) {
            auto admit = [&](size_t j) {
                uint64_t local = rp.local(p0 + j);
                return corpus_.chunkLive(local) &&
                    (filter == baseline::kFilterAll ||
                     baseline::passesFilter(
                         filter, baseline::chunkLabel(
                                     corpus_.globalChunk(local),
                                     corpus_seed)));
            };
            stageAdmit(dev, std::min<uint64_t>(l, rp.ext[s + 1] - p0),
                       admit, at);
        }
    }
    return addr;
}

void
RagRetriever::publishTopkIds(RagRunResult &res, size_t slot)
{
    res.topkIdsAddr =
        idsAddr_ + slot * topK * sizeof(uint32_t);
    res.topkIdsCount = res.hits.size();
    if (res.hits.empty())
        return;
    std::vector<uint32_t> ids(res.hits.size());
    for (size_t i = 0; i < res.hits.size(); ++i)
        ids[i] = static_cast<uint32_t>(res.hits[i].id);
    dev.l4().write(res.topkIdsAddr, ids.data(),
                   ids.size() * sizeof(uint32_t));
}

RagRunResult
RagRetriever::retrieve(const std::vector<int16_t> &query,
                       RagVariant variant, uint64_t corpus_seed)
{
    cisram_assert(query.size() == corpus_.dim, "query dim mismatch");
    cisram_assert(corpus_.epochView == nullptr,
                  "epoch-overlaid corpora serve via retrieveBatch");
    switch (variant) {
      case RagVariant::NoOpt:
        return retrieveSpatial(query, false, false, corpus_seed);
      case RagVariant::Opt2:
        return retrieveSpatial(query, true, false, corpus_seed);
      case RagVariant::Opt3:
        return retrieveSpatial(query, false, true, corpus_seed);
      case RagVariant::Opt1:
        return retrieveTemporal(query, false, false, corpus_seed);
      case RagVariant::AllOpts:
        return retrieveTemporal(query, true, true, corpus_seed);
    }
    cisram_panic("unknown variant");
}

RagRunResult
RagRetriever::retrieveGf16(const std::vector<int16_t> &query,
                           uint64_t corpus_seed)
{
    cisram_assert(query.size() == corpus_.dim, "query dim mismatch");
    cisram_assert(corpus_.epochView == nullptr,
                  "epoch-overlaid corpora serve via retrieveBatch");
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    size_t chunks = corpus_.numChunks;
    size_t supertiles = divCeil(chunks, l);
    bool fnl = core.functional();

    RagRunResult res;
    res.dramBytes = static_cast<double>(chunks) *
        static_cast<double>(dim) * 2.0;
    res.cacheBytes = 2.0 * res.dramBytes;
    res.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(res.dramBytes));

    // Dimension-major gf16 planes.
    uint64_t emb_addr = 0;
    if (fnl) {
        emb_addr =
            dev.allocator().alloc(supertiles * dim * l * 2, 512);
        for (size_t st = 0; st < supertiles; ++st) {
            size_t valid = std::min(l, chunks - st * l);
            auto rows = genRows(corpus_, corpus_seed, valid,
                                [&](size_t j) {
                                    return corpus_.globalChunk(st * l +
                                                               j);
                                });
            stageRows(dev, rows.data(), valid, dim,
                      emb_addr + st * dim * l * 2, encodeGf16);
        }
    }

    core.stats().reset();
    StageTimer timer(core);

    core.dmaL4ToL3(0, 0, dim * 2); // bf query layout in L3
    res.stages.loadQuery = dev.cyclesToSeconds(timer.lap());

    const Vr vrOrd{6}, vrS1{7}, vrS2{8};
    std::vector<Hit> candidates;
    double topk_cycles = 0.0;
    for (size_t st = 0; st < (fnl ? supertiles : size_t(1)); ++st) {
        double st_factor =
            fnl ? 1.0 : static_cast<double>(supertiles);
        ScopedRepeat strep(core.stats(), st_factor);

        size_t valid = fnl ? std::min(l, chunks - st * l) : l;
        g.cpyImm16(vrAcc, 0); // gf16 +0.0
        timedLoop(core, dim, [&](size_t d) {
            core.chargeRaw(ingestCycles(t, true));
            if (fnl)
                streamPlane(core, vmStage,
                            emb_addr + st * dim * l * 2 + d * valid * 2,
                            valid);
            g.load16(vrEmb, vmStage);
            g.macImmGf16(vrEmb, vrQ, vrT, vrAcc,
                         GsiFloat16::fromFloat(
                             static_cast<float>(query[d]))
                             .bits());
        });
        g.orderGf16(vrOrd, vrAcc, vrS1, vrS2);

        double before = core.stats().cycles();
        // Extract against the ordered keys; recover the gf16 score
        // from the accumulator at the winning index.
        for (size_t k = 0; k < topK; ++k) {
            auto mx = g.maxIndexU16(vrOrd);
            core.rspSet(vrOrd.idx, fnl ? mx.index : 0, 0);
            if (fnl && mx.index < valid) {
                uint16_t bits = core.vr().lanes(vrAcc.idx).at(mx.index);
                candidates.push_back(
                    {GsiFloat16::fromBits(bits).toFloat(),
                     st * l + mx.index});
            }
        }
        core.chargeRaw(mergeCyclesPerVr);
        topk_cycles += core.stats().cycles() - before;
    }
    double calc_total = timer.lap();
    res.stages.calcDistance =
        dev.cyclesToSeconds(calc_total - topk_cycles);
    res.stages.topkAggregation = dev.cyclesToSeconds(topk_cycles);
    res.computeSeconds = res.stages.calcDistance;
    core.chargeRaw(returnTopkCycles);
    res.stages.returnTopk = dev.cyclesToSeconds(timer.lap());

    if (fnl) {
        res.hits = mergeHits(std::move(candidates), topK);
        dev.allocator().free(emb_addr);
    }
    publishTopkIds(res, 0);
    res.status = hbm.takeFaultStatus();
    return res;
}

std::vector<RagRunResult>
RagRetriever::retrieveBatch(
    const std::vector<std::vector<int16_t>> &queries,
    uint64_t corpus_seed, RagBatchOptions opts)
{
    size_t batch = queries.size();
    cisram_assert(batch >= 1 && batch <= 8,
                  "batch size must be 1..8 (one accumulator VR per "
                  "query)");
    for (const auto &q : queries)
        cisram_assert(q.size() == corpus_.dim, "query dim mismatch");

    if (opts.ivf != nullptr && opts.search.nprobe > 0)
        return retrieveIvfBatch(queries, corpus_seed, opts);

    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    size_t chunks = corpus_.numChunks;
    size_t supertiles = divCeil(chunks, l);
    bool fnl = core.functional();
    uint16_t filter = opts.search.filterMask;
    bool filtered = filter != baseline::kFilterAll;
    bool mutated = corpus_.epochView != nullptr;
    if (mutated) {
        cisram_assert(chunks == corpus_.epochView->baseChunks +
                                    corpus_.epochView->inserted.size(),
                      "epoch view / spec chunk count mismatch");
    }

    std::vector<RagRunResult> results(batch);
    // The predicate bitmask plane (one u16 mark per chunk) streams
    // alongside the corpus when a filter is armed: 1/dim of the
    // embedding bytes — the "nearly free" part of filtered search.
    // An epoch-overlaid corpus streams a tombstone plane of the same
    // shape, so masking deletes costs the same near-nothing.
    double shared_dram = static_cast<double>(chunks) *
        (static_cast<double>(dim) + (filtered ? 1.0 : 0.0) +
         (mutated ? 1.0 : 0.0)) * 2.0;

    // One pass over the corpus serves the whole batch.
    double load_emb = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(shared_dram));

    // The embedding planes stay staged for the retriever's lifetime;
    // only the admit planes depend on the batch and are rebuilt.
    uint64_t emb_addr = 0, adm_addr = 0;
    if (fnl) {
        emb_addr = residentSegment(shard_, 0, corpus_seed);
        adm_addr = admitPlanes(shard_, {0}, filter, corpus_seed);
    }

    core.stats().reset();
    StageTimer timer(core);

    // Queries staged into the CP's L3 (broadcast-friendly layout).
    core.dmaL4ToL3(0, 0, batch * dim * 2);
    double load_query = dev.cyclesToSeconds(timer.lap());

    // The bias constant prepares the score transform, not the query
    // transfer: it charges to calc-distance (the next lap), keeping
    // load-query a pure measure of staging the query vectors.
    g.cpyImm16(vrBias, 0x8000);

    std::vector<std::vector<Hit>> candidates(batch);
    std::vector<size_t> all(batch);
    for (size_t q2 = 0; q2 < batch; ++q2)
        all[q2] = q2;
    double topk_cycles = 0.0;
    for (size_t st = 0; st < (fnl ? supertiles : size_t(1)); ++st) {
        double st_factor =
            fnl ? 1.0 : static_cast<double>(supertiles);
        ScopedRepeat strep(core.stats(), st_factor);

        size_t valid = fnl ? std::min(l, chunks - st * l) : l;
        scoreSupertile(g, queries, all, emb_addr + st * dim * l * 2,
                       adm_addr + st * l * 2, valid);

        // AND the admit plane (validity + metadata predicate) into
        // the match mask: one negated-mask select per score VR
        // writes the masked-out sentinel (biased 0x0000, a dot of
        // -32768 no int16 embedding can produce) into excluded
        // lanes, which extractTopK already skips.
        double before = core.stats().cycles();
        for (size_t q2 = 0; q2 < batch; ++q2) {
            g.xor16(accVr(q2), accVr(q2), vrBias);
            g.cpyImm16Nmsk(accVr(q2), 0x0000, vrAdmit);
            auto part = extractTopK(g, core, accVr(q2), topK, valid);
            for (auto &h : part)
                h.id += st * l;
            candidates[q2].insert(candidates[q2].end(),
                                  part.begin(), part.end());
        }
        topk_cycles += core.stats().cycles() - before;
    }
    double calc_total = timer.lap();
    core.chargeRaw(returnTopkCycles * static_cast<double>(batch));
    double return_total = dev.cyclesToSeconds(timer.lap());
    double calc_s = dev.cyclesToSeconds(calc_total - topk_cycles);

    // Overlapped corpus streaming: with both DMA engines active, the
    // HBM stream for supertile st+1 lands in the spare L4 buffer
    // while the VXU scores supertile st. The stage latencies keep
    // their full (sequential) attribution; only overlapHidden — the
    // portion of the stream the pipeline hides, provably bounded by
    // both loadEmbedding and calcDistance (see overlapHiddenSeconds)
    // — feeds back into total().
    double overlap_hidden = 0.0;
    if (opts.overlapStream)
        overlap_hidden = overlapHiddenSeconds(dev, t, load_emb,
                                              calc_s, supertiles);

    double b = static_cast<double>(batch);
    for (size_t q2 = 0; q2 < batch; ++q2) {
        auto &r = results[q2];
        r.stages.loadEmbedding = load_emb / b;
        r.stages.loadQuery = load_query / b;
        r.stages.calcDistance = calc_s / b;
        r.stages.topkAggregation =
            dev.cyclesToSeconds(topk_cycles) / b;
        r.stages.returnTopk = return_total / b;
        r.stages.overlapHidden = overlap_hidden / b;
        r.computeSeconds = r.stages.calcDistance;
        r.dramBytes = shared_dram / b;
        r.cacheBytes = 2.0 * shared_dram / b;
        if (fnl)
            r.hits = mergeHits(std::move(candidates[q2]), topK);
        publishTopkIds(r, q2);
    }
    if (fnl)
        dev.allocator().free(adm_addr);
    // One corpus pass serves the whole batch, so an uncorrectable
    // ECC error taints every result in it.
    Status ecc = hbm.takeFaultStatus();
    if (!ecc.ok())
        for (auto &r : results)
            r.status = ecc;
    return results;
}

std::vector<RagRunResult>
RagRetriever::retrieveIvfBatch(
    const std::vector<std::vector<int16_t>> &queries,
    uint64_t corpus_seed, const RagBatchOptions &opts)
{
    const baseline::IvfClustering &cl = *opts.ivf;
    size_t batch = queries.size();
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    size_t K = cl.numLists();
    size_t nprobe = std::min(opts.search.nprobe, K);
    uint16_t filter = opts.search.filterMask;
    bool filtered = filter != baseline::kFilterAll;
    bool fnl = core.functional();

    cisram_assert(cl.dim() == dim, "clustering dim mismatch");
    cisram_assert(corpus_.epochView == nullptr,
                  "IVF probing over an epoch-overlaid corpus is not "
                  "supported");
    cisram_assert(cl.numChunks() == corpus_.numChunks,
                  "clustering built for a different corpus");

    // CP-side probe selection mirror of the golden index. The
    // device's coarse pass below runs the same selection on the VXU;
    // in functional mode the two are asserted identical, which is
    // what makes the device-vs-golden bit-compare meaningful.
    std::vector<std::vector<uint32_t>> probes(batch);
    for (size_t q2 = 0; q2 < batch; ++q2)
        probes[q2] = cl.selectProbes(queries[q2].data(), nprobe);

    // Union of probed lists in ascending list order; each list
    // streams once per batch and only its probing queries extract.
    std::vector<std::vector<size_t>> byList(K);
    for (size_t q2 = 0; q2 < batch; ++q2)
        for (uint32_t list : probes[q2])
            byList[list].push_back(q2);
    std::vector<uint32_t> lists;
    for (uint32_t j = 0; j < K; ++j)
        if (!byList[j].empty())
            lists.push_back(j);

    const auto &offsets = cl.listOffsets();
    const auto &order = cl.order();
    uint64_t probed_chunks = 0;
    size_t total_supertiles = 0;
    for (uint32_t list : lists) {
        probed_chunks += cl.listSize(list);
        total_supertiles += divCeil(cl.listSize(list), l);
    }

    std::vector<RagRunResult> results(batch);
    // Stream budget: centroid table + the probed lists' embeddings,
    // plus their predicate planes when a filter is armed. The
    // exhaustive pass streams chunks*dim*2; the ratio is the scan
    // reduction bench_ivf_recall reports.
    double shared_dram =
        (static_cast<double>(K) * dim +
         static_cast<double>(probed_chunks) *
             (static_cast<double>(dim) + (filtered ? 1.0 : 0.0))) *
        2.0;
    double load_emb = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(shared_dram));

    // Functional staging: the centroid planes (+ a lane-validity
    // plane for the coarse pass) once per retriever, a list's planes
    // when a batch first probes it (segment `list` of order(),
    // ascending within the list, which keeps per-supertile tie
    // extraction exact), and the probed lists' admit planes.
    std::vector<uint64_t> list_addr(K);
    uint64_t adm_addr = 0;
    if (fnl) {
        if (!ivf_) {
            ivf_ = &cl;
            lists_.perm = order.data();
            lists_.ext = offsets;
            centAddr_ = dev.allocator().alloc((dim + 1) * l * 2, 512);
            stageRows(dev, cl.centroids().data(), K, dim, centAddr_);
            stageAdmit(dev, K, [](size_t) { return true; },
                       centAddr_ + dim * l * 2);
        }
        cisram_assert(ivf_ == &cl, "a retriever probes one clustering");
        for (uint32_t list : lists)
            list_addr[list] = residentSegment(lists_, list, corpus_seed);
        adm_addr = admitPlanes(lists_, lists, filter, corpus_seed);
    }

    core.stats().reset();
    StageTimer timer(core);

    core.dmaL4ToL3(0, 0, batch * dim * 2);
    double load_query = dev.cyclesToSeconds(timer.lap());

    g.cpyImm16(vrBias, 0x8000);

    std::vector<std::vector<Hit>> candidates(batch);
    std::vector<size_t> all(batch);
    for (size_t q2 = 0; q2 < batch; ++q2)
        all[q2] = q2;
    double topk_cycles = 0.0;

    // ---- coarse centroid pass --------------------------------------
    // The centroid table (K x dim int16, ~46 KiB at K = 64) stages
    // through L3/L4 and streams as dim K-wide planes: one mini
    // supertile scoring lists instead of chunks, reusing the exact
    // MAC/bias/extract machinery of the main loop.
    scoreSupertile(g, queries, all, centAddr_, centAddr_ + dim * l * 2,
                   K);
    {
        double before = core.stats().cycles();
        for (size_t q2 = 0; q2 < batch; ++q2) {
            g.xor16(accVr(q2), accVr(q2), vrBias);
            g.cpyImm16Nmsk(accVr(q2), 0x0000, vrAdmit);
            std::vector<uint32_t> dev_probes;
            for (size_t p = 0; p < nprobe; ++p) {
                auto mx = g.maxIndexU16(accVr(q2));
                core.rspSet(accVr(q2).idx, fnl ? mx.index : 0, 0);
                if (fnl && mx.index < K && mx.value != 0)
                    dev_probes.push_back(
                        static_cast<uint32_t>(mx.index));
            }
            if (fnl)
                cisram_assert(
                    dev_probes == probes[q2],
                    "device coarse pass diverged from golden "
                    "probe selection");
        }
        core.chargeRaw(mergeCyclesPerVr);
        topk_cycles += core.stats().cycles() - before;
    }

    // ---- probe-restricted streaming --------------------------------
    size_t gst = 0;
    for (uint32_t list : lists) {
        const auto &qset = byList[list];
        size_t lsz = cl.listSize(list);
        for (size_t st = 0; st < divCeil(lsz, l); ++st, ++gst) {
            size_t valid = fnl ? std::min(l, lsz - st * l) : l;
            scoreSupertile(g, queries, qset,
                           list_addr[list] + st * dim * l * 2,
                           adm_addr + gst * l * 2, valid);

            double before = core.stats().cycles();
            for (size_t q2 : qset) {
                g.xor16(accVr(q2), accVr(q2), vrBias);
                g.cpyImm16Nmsk(accVr(q2), 0x0000, vrAdmit);
                auto part =
                    extractTopK(g, core, accVr(q2), topK, valid);
                for (auto &h : part)
                    h.id = order[offsets[list] + st * l + h.id];
                candidates[q2].insert(candidates[q2].end(),
                                      part.begin(), part.end());
            }
            topk_cycles += core.stats().cycles() - before;
        }
    }
    double calc_total = timer.lap();
    core.chargeRaw(returnTopkCycles * static_cast<double>(batch));
    double return_total = dev.cyclesToSeconds(timer.lap());
    double calc_s = dev.cyclesToSeconds(calc_total - topk_cycles);

    double overlap_hidden = 0.0;
    if (opts.overlapStream)
        overlap_hidden = overlapHiddenSeconds(
            dev, t, load_emb, calc_s, total_supertiles);

    double b = static_cast<double>(batch);
    for (size_t q2 = 0; q2 < batch; ++q2) {
        auto &r = results[q2];
        r.stages.loadEmbedding = load_emb / b;
        r.stages.loadQuery = load_query / b;
        r.stages.calcDistance = calc_s / b;
        r.stages.topkAggregation =
            dev.cyclesToSeconds(topk_cycles) / b;
        r.stages.returnTopk = return_total / b;
        r.stages.overlapHidden = overlap_hidden / b;
        r.computeSeconds = r.stages.calcDistance;
        r.dramBytes = shared_dram / b;
        r.cacheBytes = 2.0 * shared_dram / b;
        if (fnl)
            r.hits = mergeHits(std::move(candidates[q2]), topK);
        publishTopkIds(r, q2);
    }
    if (fnl)
        dev.allocator().free(adm_addr);
    Status ecc = hbm.takeFaultStatus();
    if (!ecc.ok())
        for (auto &r : results)
            r.status = ecc;
    return results;
}

RagRunResult
RagRetriever::retrieveSpatial(const std::vector<int16_t> &query,
                              bool coalesce, bool bf_query,
                              uint64_t corpus_seed)
{
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t pad = size_t(1) << log2Ceil(corpus_.dim);
    size_t cpt = l / pad; // chunks per tile
    size_t chunks = corpus_.numChunks;
    size_t full_tiles = chunks / cpt;
    size_t rem = chunks % cpt;
    size_t score_vrs = divCeil(chunks, l);

    RagRunResult res;
    res.dramBytes =
        static_cast<double>(chunks) * static_cast<double>(pad) * 2.0;
    res.cacheBytes = 2.0 * res.dramBytes;

    // Off-chip embedding stream, timed by the HBM simulator.
    res.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(res.dramBytes));

    // Functional staging: padded chunk-major embeddings + query.
    uint64_t emb_addr = 0, q_addr = 0;
    bool fnl = core.functional();
    if (fnl) {
        emb_addr = dev.allocator().alloc(
            divCeil(chunks, cpt) * l * 2, 512);
        std::vector<uint16_t> tile(l);
        for (size_t tl = 0; tl < divCeil(chunks, cpt); ++tl) {
            std::fill(tile.begin(), tile.end(), 0);
            size_t n = std::min(cpt, chunks - tl * cpt);
            auto rows = genRows(corpus_, corpus_seed, n, [&](size_t c) {
                return corpus_.globalChunk(tl * cpt + c);
            });
            for (size_t c = 0; c < n; ++c)
                for (size_t d = 0; d < corpus_.dim; ++d)
                    tile[c * pad + d] =
                        encodeS16(rows[c * corpus_.dim + d]);
            dev.l4().write(emb_addr + tl * l * 2, tile.data(),
                           l * 2);
        }
        q_addr = dev.allocator().alloc(pad * 2, 512);
        std::vector<uint16_t> qpad(pad, 0);
        for (size_t d = 0; d < corpus_.dim; ++d)
            qpad[d] = static_cast<uint16_t>(query[d]);
        dev.l4().write(q_addr, qpad.data(), pad * 2);
    }

    core.stats().reset();
    StageTimer timer(core);

    // ---- load query ------------------------------------------------
    core.dmaL4ToL2(q_addr, 0, pad * 2);
    core.dmaL2ToL1(vmStage.idx);
    g.load16(vrQ, vmStage);
    g.cpySubgrp16Grp(vrQ, vrQ, l, pad, 0);
    (void)bf_query; // no standalone effect on the spatial base
    res.stages.loadQuery = dev.cyclesToSeconds(timer.lap());
    // Bias setup charges to calc-distance (see retrieveBatch).
    g.cpyImm16(vrBias, 0x8000);

    // ---- distance calculation --------------------------------------
    // Group-head scores are scattered in the tile VR; the RSP FIFO
    // moves them one element at a time into the resident score VR
    // (the fine-grained element access the paper attributes to the
    // unoptimized mapping). When the score VR fills, its top-k is
    // extracted in place (charged to the aggregation stage).
    std::vector<Hit> candidates;
    double topk_cycles = 0.0;
    const Vr vrScore{6};
    size_t score_fill = 0; // elements in the current score VR
    size_t score_base = 0; // first chunk of the current score VR

    auto drain_scores = [&](bool force) {
        if (score_fill == 0 || (!force && score_fill < l))
            return;
        double before = core.stats().cycles();
        auto part = extractTopK(g, core, vrScore, topK, score_fill);
        for (auto &h : part)
            h.id += score_base;
        candidates.insert(candidates.end(), part.begin(),
                          part.end());
        // Clear the drained VR so stale scores never leak into the
        // next fill's partial extraction.
        g.cpyImm16(vrScore, 0);
        topk_cycles += core.stats().cycles() - before;
        score_base += score_fill;
        score_fill = 0;
    };

    auto do_tile = [&](size_t tile_idx, size_t chunk_count) {
        core.chargeRaw(ingestCycles(t, coalesce));
        if (fnl) {
            auto &slot = core.l1().slot(vmStage.idx);
            dev.l4().read(emb_addr + tile_idx * l * 2, slot.data(),
                          l * 2);
        }
        g.load16(vrEmb, vmStage);
        g.mulS16(vrT, vrEmb, vrQ);
        g.addSubgrpS16(vrT, vrT, pad, 1);
        g.xor16(vrT, vrT, vrBias);
        // One RSP transfer per produced score.
        core.chargeRaw(static_cast<double>(chunk_count) *
                       t.move.pioStorePerElem);
        if (fnl) {
            auto &score = core.vr()[vrScore.idx];
            const auto &tvals = core.vr()[vrT.idx];
            for (size_t c = 0; c < chunk_count; ++c)
                score[(tile_idx * cpt + c) % l] = tvals[c * pad];
        }
    };

    if (fnl) {
        // Score VRs fill every l/cpt tiles; drain as they fill.
        for (size_t i = 0; i < full_tiles; ++i) {
            do_tile(i, cpt);
            score_fill += cpt;
            drain_scores(false);
        }
        if (rem) {
            do_tile(full_tiles, rem);
            score_fill += rem;
        }
        drain_scores(true);
    } else {
        timedLoop(core, full_tiles,
                  [&](size_t i) { do_tile(i, cpt); });
        if (rem)
            do_tile(full_tiles, rem);
        // One extraction pass per (possibly partial) score VR.
        double before = core.stats().cycles();
        {
            apu::ScopedRepeat rep(core.stats(),
                                  static_cast<double>(score_vrs));
            extractTopK(g, core, vrScore, topK, l);
        }
        topk_cycles += core.stats().cycles() - before;
    }

    double calc_total = timer.lap();
    res.stages.calcDistance =
        dev.cyclesToSeconds(calc_total - topk_cycles);
    res.stages.topkAggregation = dev.cyclesToSeconds(topk_cycles);
    res.computeSeconds = res.stages.calcDistance;

    // ---- return -------------------------------------------------------
    core.chargeRaw(returnTopkCycles);
    res.stages.returnTopk = dev.cyclesToSeconds(timer.lap());

    if (fnl) {
        res.hits = mergeHits(std::move(candidates), topK);
        dev.allocator().free(emb_addr);
        dev.allocator().free(q_addr);
    }
    publishTopkIds(res, 0);
    res.status = hbm.takeFaultStatus();
    return res;
}

RagRunResult
RagRetriever::retrieveTemporal(const std::vector<int16_t> &query,
                               bool coalesce, bool bf_query,
                               uint64_t corpus_seed)
{
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    size_t chunks = corpus_.numChunks;
    size_t supertiles = divCeil(chunks, l);

    RagRunResult res;
    res.dramBytes = static_cast<double>(chunks) *
        static_cast<double>(dim) * 2.0;
    res.cacheBytes = 2.0 * res.dramBytes;
    res.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(res.dramBytes));

    // Functional staging: the resident dimension-major planes.
    uint64_t emb_addr = 0, q_addr = 0;
    bool fnl = core.functional();
    if (fnl) {
        emb_addr = residentSegment(shard_, 0, corpus_seed);
        q_addr = dev.allocator().alloc(l * 2, 512);
        std::vector<uint16_t> qv(l, 0);
        for (size_t d = 0; d < dim; ++d)
            qv[d] = static_cast<uint16_t>(query[d]);
        dev.l4().write(q_addr, qv.data(), l * 2);
    }

    core.stats().reset();
    StageTimer timer(core);

    // ---- load query -------------------------------------------------
    core.dmaL4ToL2(q_addr, 0, dim * 2);
    core.dmaL2ToL1(vmStage.idx);
    g.load16(vrQfull, vmStage);
    if (bf_query) {
        // Broadcast-friendly layout: the query is staged into the
        // CP's L3 so scalars broadcast as immediates.
        core.dmaL4ToL3(q_addr, 0, dim * 2);
    }
    res.stages.loadQuery = dev.cyclesToSeconds(timer.lap());
    // Bias setup charges to calc-distance (see retrieveBatch).
    g.cpyImm16(vrBias, 0x8000);

    // ---- distance calculation ----------------------------------------
    std::vector<Hit> candidates;
    double topk_cycles = 0.0;
    for (size_t st = 0; st < (fnl ? supertiles : size_t(1)); ++st) {
        double st_factor =
            fnl ? 1.0 : static_cast<double>(supertiles);
        ScopedRepeat strep(core.stats(), st_factor);

        size_t valid = fnl ? std::min(l, chunks - st * l) : l;
        g.cpyImm16(vrAcc, 0);
        timedLoop(core, dim, [&](size_t d) {
            core.chargeRaw(ingestCycles(t, coalesce));
            if (fnl)
                streamPlane(core, vmStage,
                            emb_addr + st * dim * l * 2 + d * valid * 2,
                            valid);
            g.load16(vrEmb, vmStage);
            if (bf_query) {
                uint16_t imm = static_cast<uint16_t>(query[d]);
                g.macImmS16(vrEmb, vrQ, vrT, &vrAcc, &imm, 1);
            } else {
                g.cpySubgrp16Grp(vrQ, vrQfull, l, 1, d);
                g.mulS16(vrT, vrEmb, vrQ);
                g.addS16(vrAcc, vrAcc, vrT);
            }
        });
        g.xor16(vrAcc, vrAcc, vrBias);

        // Inline per-super-tile top-k (scores stay resident);
        // cycles re-attributed to the aggregation stage below.
        double before = core.stats().cycles();
        auto part = extractTopK(g, core, vrAcc, topK, valid);
        for (auto &h : part)
            h.id += st * l;
        candidates.insert(candidates.end(), part.begin(),
                          part.end());
        topk_cycles += core.stats().cycles() - before;
    }
    double calc_total = timer.lap();
    res.stages.calcDistance =
        dev.cyclesToSeconds(calc_total - topk_cycles);
    res.stages.topkAggregation = dev.cyclesToSeconds(topk_cycles);
    res.computeSeconds = res.stages.calcDistance;

    // ---- return -------------------------------------------------------
    core.chargeRaw(returnTopkCycles);
    res.stages.returnTopk = dev.cyclesToSeconds(timer.lap());

    if (fnl) {
        res.hits = mergeHits(std::move(candidates), topK);
        dev.allocator().free(q_addr);
    }
    publishTopkIds(res, 0);
    res.status = hbm.takeFaultStatus();
    return res;
}

} // namespace cisram::kernels
