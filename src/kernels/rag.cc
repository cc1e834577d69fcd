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

/**
 * One run of a supertile plan: `supertiles` consecutive supertiles
 * of segment `seg` of `rp`, each charged `repeat` times, scored for
 * the batch lanes `qs`. A TimingOnly exhaustive scan is one
 * supertile repeated over the whole shard; every other run iterates
 * its supertiles one by one.
 */
struct RagRetriever::Plan
{
    struct Run
    {
        ResidentPlanes *rp;
        uint32_t seg;
        size_t supertiles;
        double repeat;
        std::vector<size_t> qs;
        uint64_t base = 0; ///< the segment's staged planes (functional)
    };

    std::vector<Run> runs;

    /**
     * The coarse centroid pass ahead of the runs: the clustering
     * whose centroid table scores first, its probe count, and the
     * CP's golden probe selection per query that the device must
     * reproduce. Null for the exhaustive scan.
     */
    const baseline::IvfClustering *coarse = nullptr;
    size_t nprobe = 0;
    std::vector<std::vector<uint32_t>> probes;
};

/**
 * One retrieval call's stage ledger: the whole call's embedding
 * stream, query load, streamed bytes and top-k cycles, its per-query
 * candidates, and a lap timer over the core's cycle count (which the
 * caller resets before the first timed stage).
 */
struct RagRetriever::Ledger
{
    Ledger(ApuCore &core, size_t batch) : core(core), cands(batch) {}

    /** Cycles charged since the previous lap. */
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
    double loadEmb = 0.0;   ///< seconds
    double loadQuery = 0.0; ///< seconds
    double dramBytes = 0.0;
    double topkCycles = 0.0;
    size_t overlapSupertiles = 0; ///< overlapped stream depth; 0 = off
    std::vector<std::vector<Hit>> cands;
};

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
RagRetriever::admitPlanes(const Plan &plan, uint16_t filter,
                          uint64_t corpus_seed)
{
    size_t l = dev.spec().vrLength;
    size_t supertiles = 0;
    for (const Plan::Run &run : plan.runs)
        supertiles += run.rp->first[run.seg + 1] - run.rp->first[run.seg];
    uint64_t addr = dev.allocator().alloc(supertiles * l * 2, 512);
    uint64_t at = addr;
    for (const Plan::Run &run : plan.runs) {
        const ResidentPlanes &rp = *run.rp;
        uint32_t s = run.seg;
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

std::vector<RagRunResult>
RagRetriever::finish(Ledger &lg)
{
    size_t batch = lg.cands.size();
    double b = static_cast<double>(batch);
    double calc_total = lg.lap();
    lg.core.chargeRaw(returnTopkCycles * b);
    double return_total = dev.cyclesToSeconds(lg.lap());
    double calc_s = dev.cyclesToSeconds(calc_total - lg.topkCycles);

    // Overlapped corpus streaming: with both DMA engines active, the
    // HBM stream for supertile st+1 lands in the spare L4 buffer
    // while the VXU scores supertile st. The stage latencies keep
    // their full (sequential) attribution; only overlapHidden — the
    // portion of the stream the pipeline hides, provably bounded by
    // both loadEmbedding and calcDistance (see overlapHiddenSeconds)
    // — feeds back into total().
    double hidden = overlapHiddenSeconds(dev, dev.timing(), lg.loadEmb,
                                         calc_s, lg.overlapSupertiles);

    std::vector<RagRunResult> results(batch);
    for (size_t q = 0; q < batch; ++q) {
        auto &r = results[q];
        r.stages.loadEmbedding = lg.loadEmb / b;
        r.stages.loadQuery = lg.loadQuery / b;
        r.stages.calcDistance = calc_s / b;
        r.stages.topkAggregation = dev.cyclesToSeconds(lg.topkCycles) / b;
        r.stages.returnTopk = return_total / b;
        r.stages.overlapHidden = hidden / b;
        r.computeSeconds = r.stages.calcDistance;
        r.dramBytes = lg.dramBytes / b;
        r.cacheBytes = 2.0 * lg.dramBytes / b;
        if (lg.core.functional())
            r.hits = mergeHits(std::move(lg.cands[q]), topK);
        // Stage the ids into the device id buffer (batch slot q).
        r.topkIdsAddr = idsAddr_ + q * topK * sizeof(uint32_t);
        r.topkIdsCount = r.hits.size();
        if (r.hits.empty())
            continue;
        std::vector<uint32_t> ids(r.hits.size());
        for (size_t i = 0; i < r.hits.size(); ++i)
            ids[i] = static_cast<uint32_t>(r.hits[i].id);
        dev.l4().write(r.topkIdsAddr, ids.data(),
                       ids.size() * sizeof(uint32_t));
    }
    // One corpus pass serves the whole batch, so an uncorrectable
    // ECC error taints every result in it.
    Status ecc = hbm.takeFaultStatus();
    if (!ecc.ok())
        for (auto &r : results)
            r.status = ecc;
    return results;
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

    Ledger lg(core, 1);
    lg.dramBytes = static_cast<double>(chunks) *
        static_cast<double>(dim) * 2.0;
    lg.loadEmb = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(lg.dramBytes));

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
    core.dmaL4ToL3(0, 0, dim * 2); // bf query layout in L3
    lg.loadQuery = dev.cyclesToSeconds(lg.lap());

    const Vr vrOrd{6}, vrS1{7}, vrS2{8};
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
                lg.cands[0].push_back(
                    {GsiFloat16::fromBits(bits).toFloat(),
                     st * l + mx.index});
            }
        }
        core.chargeRaw(mergeCyclesPerVr);
        lg.topkCycles += core.stats().cycles() - before;
    }
    RagRunResult res = std::move(finish(lg)[0]);
    if (fnl)
        dev.allocator().free(emb_addr);
    return res;
}

void
RagRetriever::planIvf(Plan &plan,
                      const std::vector<std::vector<int16_t>> &queries,
                      const RagBatchOptions &opts)
{
    const baseline::IvfClustering &cl = *opts.ivf;
    size_t K = cl.numLists();
    cisram_assert(cl.dim() == corpus_.dim, "clustering dim mismatch");
    cisram_assert(corpus_.epochView == nullptr,
                  "IVF probing over an epoch-overlaid corpus is not "
                  "supported");
    cisram_assert(cl.numChunks() == corpus_.numChunks,
                  "clustering built for a different corpus");
    // Segment j of lists_ is list j of order(), ascending within the
    // list, which keeps per-supertile tie extraction exact.
    if (lists_.perm == nullptr) {
        lists_.perm = cl.order().data();
        lists_.ext = cl.listOffsets();
    }
    cisram_assert(lists_.perm == cl.order().data(),
                  "a retriever probes one clustering");

    // CP-side probe selection mirror of the golden index; the coarse
    // pass reproduces it on the VXU.
    plan.coarse = &cl;
    plan.nprobe = std::min(opts.search.nprobe, K);
    std::vector<std::vector<size_t>> byList(K);
    for (size_t q = 0; q < queries.size(); ++q) {
        plan.probes.push_back(
            cl.selectProbes(queries[q].data(), plan.nprobe));
        for (uint32_t list : plan.probes.back())
            byList[list].push_back(q);
    }
    // The union of probed lists in ascending list order: each list
    // streams once per batch and only its probing queries extract.
    size_t l = dev.spec().vrLength;
    for (uint32_t j = 0; j < K; ++j)
        if (!byList[j].empty())
            plan.runs.push_back({&lists_, j, divCeil(cl.listSize(j), l),
                                 1.0, std::move(byList[j])});
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

    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    bool fnl = core.functional();
    uint16_t filter = opts.search.filterMask;
    bool filtered = filter != baseline::kFilterAll;
    bool mutated = corpus_.epochView != nullptr;
    if (mutated)
        cisram_assert(corpus_.numChunks == corpus_.epochView->baseChunks +
                          corpus_.epochView->inserted.size(),
                      "epoch view / spec chunk count mismatch");

    // The plan: the IVF planner's probed lists, or one run over the
    // whole shard (TimingOnly charges one supertile for all of them).
    Plan plan;
    std::vector<size_t> all(batch);
    for (size_t q = 0; q < batch; ++q)
        all[q] = q;
    if (opts.ivf != nullptr && opts.search.nprobe > 0) {
        planIvf(plan, queries, opts);
    } else {
        size_t n = divCeil(corpus_.numChunks, l);
        plan.runs.push_back({&shard_, 0, fnl ? n : 1,
                             fnl ? 1.0 : static_cast<double>(n), all});
    }

    // Stream budget: the centroid table, then each streamed chunk's
    // embedding plus, when armed, its predicate plane and its epoch
    // tombstone plane — 1/dim of the embedding bytes each, the
    // "nearly free" part of filtered search. One pass serves the
    // whole batch; against the exhaustive budget, the probed one
    // gives the scan reduction bench_ivf_recall reports.
    Ledger lg(core, batch);
    uint64_t chunks = 0;
    for (const Plan::Run &run : plan.runs) {
        chunks += run.rp->ext[run.seg + 1] - run.rp->ext[run.seg];
        if (opts.overlapStream)
            lg.overlapSupertiles +=
                static_cast<size_t>(run.supertiles * run.repeat);
    }
    size_t K = plan.coarse ? plan.coarse->numLists() : 0;
    lg.dramBytes = (static_cast<double>(K) * dim +
                    static_cast<double>(chunks) *
                        (static_cast<double>(dim) +
                         (filtered ? 1.0 : 0.0) + (mutated ? 1.0 : 0.0))) *
        2.0;
    lg.loadEmb = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(lg.dramBytes));

    // Functional staging: the centroid planes (+ a lane-validity
    // plane for the coarse pass) once per retriever, each run's
    // segment the first time a batch streams it, and this batch's
    // admit planes, one per supertile in run order.
    uint64_t adm_addr = 0;
    if (fnl) {
        if (plan.coarse && !ivf_) {
            ivf_ = plan.coarse;
            centAddr_ = dev.allocator().alloc((dim + 1) * l * 2, 512);
            stageRows(dev, ivf_->centroids().data(), K, dim, centAddr_);
            stageAdmit(dev, K, [](size_t) { return true; },
                       centAddr_ + dim * l * 2);
        }
        for (Plan::Run &run : plan.runs)
            run.base = residentSegment(*run.rp, run.seg, corpus_seed);
        adm_addr = admitPlanes(plan, filter, corpus_seed);
    }

    core.stats().reset();

    // Queries staged into the CP's L3 (broadcast-friendly layout).
    core.dmaL4ToL3(0, 0, batch * dim * 2);
    lg.loadQuery = dev.cyclesToSeconds(lg.lap());

    // The bias constant prepares the score transform, not the query
    // transfer: it charges to calc-distance (the next lap), keeping
    // load-query a pure measure of staging the query vectors.
    g.cpyImm16(vrBias, 0x8000);

    // The coarse centroid pass: the centroid table (K x dim int16,
    // ~46 KiB at K = 64) streams as dim K-wide planes, one mini
    // supertile scoring lists instead of chunks, and each query
    // extracts its nprobe best lists under one CP merge per batch.
    // In functional mode the device's probes must equal the golden
    // selection, which is what makes the device-vs-golden
    // bit-compare meaningful.
    if (plan.coarse) {
        scoreSupertile(g, queries, all, centAddr_,
                       centAddr_ + dim * l * 2, K);
        double before = core.stats().cycles();
        for (size_t q = 0; q < batch; ++q) {
            g.xor16(accVr(q), accVr(q), vrBias);
            g.cpyImm16Nmsk(accVr(q), 0x0000, vrAdmit);
            std::vector<uint32_t> dev_probes;
            for (size_t p = 0; p < plan.nprobe; ++p) {
                auto mx = g.maxIndexU16(accVr(q));
                core.rspSet(accVr(q).idx, fnl ? mx.index : 0, 0);
                if (fnl && mx.index < K && mx.value != 0)
                    dev_probes.push_back(
                        static_cast<uint32_t>(mx.index));
            }
            if (fnl)
                cisram_assert(dev_probes == plan.probes[q],
                              "device coarse pass diverged from golden "
                              "probe selection");
        }
        core.chargeRaw(mergeCyclesPerVr);
        lg.topkCycles += core.stats().cycles() - before;
    }

    // The runs. The admit plane (validity, epoch liveness, metadata
    // predicate) ANDs into the match mask: one negated-mask select
    // per score VR writes the masked-out sentinel (biased 0x0000, a
    // dot of -32768 no int16 embedding can produce) into excluded
    // lanes, which extractTopK already skips. Hit ids map back
    // through the segment's permutation.
    size_t gst = 0; // supertile index into the admit block
    for (const Plan::Run &run : plan.runs) {
        const ResidentPlanes &rp = *run.rp;
        for (size_t st = 0; st < run.supertiles; ++st, ++gst) {
            ScopedRepeat strep(core.stats(), run.repeat);
            uint64_t p0 = rp.ext[run.seg] + st * l;
            size_t valid =
                fnl ? std::min<uint64_t>(l, rp.ext[run.seg + 1] - p0) : l;
            scoreSupertile(g, queries, run.qs,
                           run.base + st * dim * l * 2,
                           adm_addr + gst * l * 2, valid);
            double before = core.stats().cycles();
            for (size_t q : run.qs) {
                g.xor16(accVr(q), accVr(q), vrBias);
                g.cpyImm16Nmsk(accVr(q), 0x0000, vrAdmit);
                auto part = extractTopK(g, core, accVr(q), topK, valid);
                for (auto &h : part)
                    h.id = rp.local(p0 + h.id);
                lg.cands[q].insert(lg.cands[q].end(), part.begin(),
                                   part.end());
            }
            lg.topkCycles += core.stats().cycles() - before;
        }
    }
    auto results = finish(lg);
    if (fnl)
        dev.allocator().free(adm_addr);
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

    Ledger lg(core, 1);
    lg.dramBytes =
        static_cast<double>(chunks) * static_cast<double>(pad) * 2.0;

    // Off-chip embedding stream, timed by the HBM simulator.
    lg.loadEmb = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(lg.dramBytes));

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

    // ---- load query ------------------------------------------------
    core.dmaL4ToL2(q_addr, 0, pad * 2);
    core.dmaL2ToL1(vmStage.idx);
    g.load16(vrQ, vmStage);
    g.cpySubgrp16Grp(vrQ, vrQ, l, pad, 0);
    (void)bf_query; // no standalone effect on the spatial base
    lg.loadQuery = dev.cyclesToSeconds(lg.lap());
    // Bias setup charges to calc-distance (see retrieveBatch).
    g.cpyImm16(vrBias, 0x8000);

    // ---- distance calculation --------------------------------------
    // Group-head scores are scattered in the tile VR; the RSP FIFO
    // moves them one element at a time into the resident score VR
    // (the fine-grained element access the paper attributes to the
    // unoptimized mapping). When the score VR fills, its top-k is
    // extracted in place (charged to the aggregation stage).
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
        lg.cands[0].insert(lg.cands[0].end(), part.begin(), part.end());
        // Clear the drained VR so stale scores never leak into the
        // next fill's partial extraction.
        g.cpyImm16(vrScore, 0);
        lg.topkCycles += core.stats().cycles() - before;
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
        lg.topkCycles += core.stats().cycles() - before;
    }

    RagRunResult res = std::move(finish(lg)[0]);
    if (fnl) {
        dev.allocator().free(emb_addr);
        dev.allocator().free(q_addr);
    }
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

    Ledger lg(core, 1);
    lg.dramBytes = static_cast<double>(chunks) *
        static_cast<double>(dim) * 2.0;
    lg.loadEmb = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(lg.dramBytes));

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

    // ---- load query -------------------------------------------------
    core.dmaL4ToL2(q_addr, 0, dim * 2);
    core.dmaL2ToL1(vmStage.idx);
    g.load16(vrQfull, vmStage);
    if (bf_query) {
        // Broadcast-friendly layout: the query is staged into the
        // CP's L3 so scalars broadcast as immediates.
        core.dmaL4ToL3(q_addr, 0, dim * 2);
    }
    lg.loadQuery = dev.cyclesToSeconds(lg.lap());
    // Bias setup charges to calc-distance (see retrieveBatch).
    g.cpyImm16(vrBias, 0x8000);

    // ---- distance calculation ----------------------------------------
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
        lg.cands[0].insert(lg.cands[0].end(), part.begin(), part.end());
        lg.topkCycles += core.stats().cycles() - before;
    }

    RagRunResult res = std::move(finish(lg)[0]);
    if (fnl)
        dev.allocator().free(q_addr);
    return res;
}

} // namespace cisram::kernels
