#include "load/openloop.hh"

#include <limits>
#include <map>
#include <memory>
#include <unordered_set>

#include "common/logging.hh"

namespace cisram::load {

std::string
sloClassName(unsigned cls)
{
    return "class" + std::to_string(cls);
}

OpenLoopResult
runOpenLoop(fleet::Router &router, const ArrivalTrace &trace,
            const baseline::RagCorpusSpec &base,
            const OpenLoopOptions &opts)
{
    cisram_assert(router.corpusEpoch() == 0,
                  "load: open-loop runs start at epoch 0");

    OpenLoopResult res;
    obs::SloMonitor *monitor = nullptr;
    std::unique_ptr<obs::SloMonitor> monitor_owner;
    std::unordered_set<std::string> monitored;
    if (!opts.slo.classes.empty()) {
        monitor_owner =
            std::make_unique<obs::SloMonitor>(opts.slo);
        monitor = monitor_owner.get();
        for (const obs::SloClass &c : opts.slo.classes)
            monitored.insert(c.name);
    }

    auto record = [&](std::vector<fleet::FleetOutcome> outs) {
        for (fleet::FleetOutcome &o : outs) {
            if (o.ok) {
                ++res.delivered;
                res.latency.observe(o.latencySeconds);
                if (monitor) {
                    std::string cname =
                        sloClassName(o.cls.sloClass);
                    if (monitored.count(cname))
                        monitor->observe(cname,
                                         o.latencySeconds);
                }
            }
            res.outcomes.push_back(std::move(o));
        }
    };

    constexpr double kNever =
        std::numeric_limits<double>::infinity();
    const std::vector<MutationBatch> *batches =
        opts.plan ? &opts.plan->batches() : nullptr;
    size_t ai = 0, mi = 0;
    bool kill_pending = opts.killAtSeconds >= 0;

    while (ai < trace.arrivals.size() ||
           (batches && mi < batches->size()) || kill_pending) {
        double ta = ai < trace.arrivals.size()
                        ? trace.arrivals[ai].seconds
                        : kNever;
        double tm = batches && mi < batches->size()
                        ? (*batches)[mi].atSeconds
                        : kNever;
        double tk = kill_pending ? opts.killAtSeconds : kNever;

        if (tm <= ta && tm <= tk) {
            const MutationBatch &b = (*batches)[mi++];
            record(router.applyMutation(
                b.epoch, opts.plan->shardUpdates(b.epoch)));
            ++res.epochsApplied;
            // Epoch boundary: close a window for every class so
            // the SLO curve tiles the run 1:1 with epochs.
            if (monitor)
                monitor->flushAll();
            continue;
        }
        if (tk <= ta) {
            // Mid-stream kill; evacuation + replica replay keeps
            // the in-flight queries exactly-once.
            router.killDevice(opts.killDevice);
            kill_pending = false;
            continue;
        }

        const Arrival &a = trace.arrivals[ai++];
        ++res.offered;
        kernels::AdmitClass cls{trace.tenantName(a), a.sloClass};
        Status st = router.admit(
            a.id, baseline::genQuery(base.dim, a.querySeed),
            a.seconds, opts.search, cls);
        if (st.ok()) {
            ++res.admitted;
        } else {
            ++res.shedByTenant[trace.tenantName(a)];
            ++res.shedByClass[a.sloClass];
        }
        record(router.pumpUntil(a.seconds));
    }

    record(router.drain());
    if (monitor) {
        monitor->flush();
        res.sloWindows = monitor->windows();
        res.breachedWindows = monitor->breachedWindows();
        res.worstBurnRate = monitor->worstBurnRate();
    }
    return res;
}

uint64_t
countGoldenMismatches(const std::vector<fleet::FleetOutcome> &outs,
                      const ArrivalTrace &trace,
                      const baseline::RagCorpusSpec &base,
                      uint64_t corpus_seed,
                      const MutationPlan *plan, size_t topK,
                      kernels::RagSearchParams search)
{
    // Group delivered outcomes by admission epoch, so each epoch's
    // corpus view is generated once for all of its queries.
    std::map<uint64_t, std::vector<const fleet::FleetOutcome *>>
        byEpoch;
    for (const fleet::FleetOutcome &o : outs) {
        if (!o.ok)
            continue;
        cisram_assert(o.id >= 1 && o.id <= trace.arrivals.size(),
                      "load: outcome #", o.id,
                      " is not from this trace");
        cisram_assert(trace.arrivals[o.id - 1].id == o.id,
                      "load: trace ids are dense and 1-based");
        cisram_assert(o.epoch == 0 || plan,
                      "load: outcome pinned to epoch ", o.epoch,
                      " but no mutation plan was given");
        byEpoch[o.epoch].push_back(&o);
    }

    uint64_t mismatches = 0;
    for (const auto &[epoch, group] : byEpoch) {
        const baseline::RagCorpusSpec &spec =
            epoch == 0 ? base : plan->specAt(epoch);
        std::vector<int16_t> queries;
        queries.reserve(group.size() * base.dim);
        for (const fleet::FleetOutcome *o : group) {
            std::vector<int16_t> q = baseline::genQuery(
                base.dim, trace.arrivals[o->id - 1].querySeed);
            queries.insert(queries.end(), q.begin(), q.end());
        }
        std::vector<std::vector<baseline::Hit>> goldens =
            baseline::searchEpochFlatBatch(spec, corpus_seed,
                                           queries.data(), group.size(),
                                           topK, search.filterMask);
        for (size_t g = 0; g < group.size(); ++g) {
            const std::vector<baseline::Hit> &golden = goldens[g];
            const std::vector<baseline::Hit> &hits = group[g]->hits;
            bool bad = golden.size() != hits.size();
            for (size_t i = 0; !bad && i < golden.size(); ++i) {
                // Golden ids are spec-local; the fleet globalizes
                // through the same epoch view, so globalize here too.
                uint64_t gid = spec.globalChunk(golden[i].id);
                bad = gid != hits[i].id ||
                    golden[i].score != hits[i].score;
            }
            if (bad)
                ++mismatches;
        }
    }
    return mismatches;
}

} // namespace cisram::load
