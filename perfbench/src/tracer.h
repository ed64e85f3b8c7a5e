/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library's public functions (tracing inside the library is not used),
 * kept in memory, and written once at the end in chrome://tracing
 * format. A span holds its name, start, end and parent; serving spans
 * also carry the request and batch ids taken from the request result.
 *
 * A Tracer is used from one thread (the benchmark's main thread);
 * it is not safe for concurrent use.
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    /** 1-based id; parent 0 marks a root span. */
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    /** chrome://tracing process track: 1 = measured wall time,
     * 2 = modeled PIM time laid out on its own timeline. */
    int track = 1;
    /** Serving request / batch ids (-1 = not a serving span). */
    std::int64_t request_id = -1;
    std::int64_t batch_id = -1;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Opens a span under the innermost open span; returns its id
     * (0 when disabled). */
    std::uint64_t open(const std::string &name);
    /** Closes the innermost open span if it is @p id. */
    void close(std::uint64_t id);
    /** Id of the innermost open span (0 when none or disabled). */
    std::uint64_t current() const
    {
        return open_.empty() ? 0 : spans_[open_.back()].id;
    }

    /** Records a finished span as given (its id is assigned here);
     * returns the id, or 0 when disabled. */
    std::uint64_t add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Writes the spans as a chrome://tracing JSON document. */
    void writeChrome(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    /** Indices into spans_ of the open spans, innermost last. */
    std::vector<std::size_t> open_;
};

/** Opens a span for the lifetime of the object (no-op when disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name)
        : tracer_(tracer), id_(tracer.open(name))
    {}
    ~ScopedSpan() { tracer_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

/**
 * Self time of every span, in the order of @p spans: its duration
 * minus the part of its interval that the union of its children's
 * intervals covers (children may overlap each other or extend past
 * the parent; only the covered part inside the parent counts).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per-name totals of a trace. */
struct SpanSummary
{
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

/** Totals grouped by span name, in first-seen order (track 1 only). */
std::vector<SpanSummary> summarize(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
