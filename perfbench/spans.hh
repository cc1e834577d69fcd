/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark wraps each call it makes into a simulator layer
 * (Router::admit, Router::pumpUntil, IvfClustering::build, ...) in a
 * span: name, host start/end, parent span, and for serving calls the
 * arrival ids involved. Spans stay in memory and are written once, as
 * Chrome/Perfetto trace JSON, when the run ends. Nothing is recorded
 * inside the simulator itself.
 *
 * A null Tracer* disables recording: Scope then reads no clock, so the
 * timed (untraced) run pays nothing.
 */
#ifndef CISRAM_PERFBENCH_SPANS_HH
#define CISRAM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Span
    {
        const char *name = ""; ///< a string literal
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        uint64_t arrival = 0;           ///< admit spans: arrival id
        std::vector<uint64_t> completed; ///< pump/drain spans
    };

    Tracer();

    /** Open a span under the innermost open one; returns its index. */
    int begin(const char *name);
    void end(int idx);

    Span &span(int idx) { return spans_[idx]; }

    /** Summed duration per span name, seconds. */
    std::map<std::string, double> totalSeconds() const;

    /** Summed duration minus child-covered time per name, seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** Durations (seconds) of every span named `name`, in order. */
    std::vector<double> durations(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    int64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name)
        : t_(t), idx_(t ? t->begin(name) : -1)
    {}
    ~Scope()
    {
        if (t_)
            t_->end(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    arrival(uint64_t id)
    {
        if (t_)
            t_->span(idx_).arrival = id;
    }

    template <typename Outcomes>
    void
    completed(const Outcomes &outs)
    {
        if (!t_)
            return;
        for (const auto &o : outs)
            t_->span(idx_).completed.push_back(o.id);
    }

  private:
    Tracer *t_;
    int idx_;
};

} // namespace perfbench

#endif // CISRAM_PERFBENCH_SPANS_HH
