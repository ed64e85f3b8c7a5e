#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/clock.h"
#include "obs/json.h"

namespace perfbench {

std::uint64_t
Tracer::open(const std::string &name)
{
    if (!enabled_)
        return 0;
    Span span;
    span.id = spans_.size() + 1;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.name = name;
    span.start_s = pimdl::SteadyClock::instance().now();
    open_.push_back(spans_.size());
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Tracer::close(std::uint64_t id)
{
    // Called from ScopedSpan's destructor, so it must not throw; scopes
    // close innermost-first, so anything else is ignored.
    if (!enabled_ || open_.empty() || spans_[open_.back()].id != id)
        return;
    spans_[open_.back()].end_s = pimdl::SteadyClock::instance().now();
    open_.pop_back();
}

std::uint64_t
Tracer::add(Span span)
{
    if (!enabled_)
        return 0;
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open trace file " + path);
    // Each track starts at its own earliest span: wall-clock spans
    // and modeled-time spans live on different timelines.
    std::map<int, double> origin;
    for (const Span &s : spans_) {
        auto [it, fresh] = origin.emplace(s.track, s.start_s);
        if (!fresh)
            it->second = std::min(it->second, s.start_s);
    }
    const std::vector<double> self = selfTimes(spans_);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"name\": " << pimdl::obs::jsonString(s.name)
            << ", \"ph\": \"X\", \"pid\": " << s.track
            << ", \"tid\": 1, \"ts\": "
            << pimdl::obs::jsonNumber((s.start_s - origin[s.track]) * 1e6)
            << ", \"dur\": "
            << pimdl::obs::jsonNumber((s.end_s - s.start_s) * 1e6)
            << ", \"args\": {\"id\": " << s.id
            << ", \"parent\": " << s.parent
            << ", \"self_us\": " << pimdl::obs::jsonNumber(self[i] * 1e6);
        if (s.request_id >= 0)
            out << ", \"request_id\": " << s.request_id;
        if (s.batch_id >= 0)
            out << ", \"batch_id\": " << s.batch_id;
        out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out)
        throw std::runtime_error("failed writing trace file " + path);
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            children[it->second].emplace_back(s.start_s, s.end_s);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start_s;
        const double hi = spans[i].end_s;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double cur_lo = 0.0, cur_hi = 0.0;
        bool open = false;
        for (auto [a, b] : kids) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::vector<SpanSummary>
summarize(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::vector<SpanSummary> out;
    std::map<std::string, std::size_t> slot;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.track != 1)
            continue;
        auto [it, fresh] = slot.emplace(s.name, out.size());
        if (fresh)
            out.push_back(SpanSummary{s.name, 0, 0.0, 0.0});
        SpanSummary &sum = out[it->second];
        ++sum.count;
        sum.total_s += s.end_s - s.start_s;
        sum.self_s += self[i];
    }
    return out;
}

} // namespace perfbench
