#include "spans.hh"

#include <cstdio>

#include "common/json.hh"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
Tracer::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int idx)
{
    spans_[idx].endNs = nowNs();
    // Scopes nest strictly, so the span closing is the innermost.
    open_.pop_back();
}

std::map<std::string, double>
Tracer::totalSeconds() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += (s.endNs - s.startNs) * 1e-9;
    return out;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            (spans_[i].endNs - spans_[i].startNs - child[i]) * 1e-9;
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back((s.endNs - s.startNs) * 1e-9);
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    cisram::json::Array events;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        cisram::json::Value ev;
        ev["name"] = s.name;
        std::string name = s.name;
        ev["cat"] = name.substr(0, name.find('.'));
        ev["ph"] = "X";
        ev["pid"] = 1;
        ev["tid"] = 1;
        ev["ts"] = s.startNs * 1e-3;
        ev["dur"] = (s.endNs - s.startNs) * 1e-3;
        cisram::json::Value &args = ev["args"];
        args["span"] = static_cast<uint64_t>(i);
        args["parent"] = static_cast<int64_t>(s.parent);
        if (s.arrival)
            args["arrival"] = s.arrival;
        if (!s.completed.empty()) {
            cisram::json::Array ids;
            for (uint64_t id : s.completed)
                ids.push_back(id);
            args["completed"] = std::move(ids);
        }
        events.push_back(std::move(ev));
    }
    cisram::json::Value doc;
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string text = doc.dump();
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
