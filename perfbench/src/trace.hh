/**
 * @file
 * Spans recorded by the benchmark around its calls into the
 * simulator's public functions.
 *
 * The spans are kept in memory while a traced run executes and are
 * summarised once at its end.  A span's self time is its duration
 * minus the time its child spans cover; spans nest strictly because
 * every call is made from the benchmark's one thread.
 */

#ifndef PERFBENCH_TRACE_HH_
#define PERFBENCH_TRACE_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Inclusive and self time of every span of one name. */
struct SpanTotal
{
    int64_t calls = 0;
    double incl_ms = 0.0;
    double self_ms = 0.0;
};

using SpanTotals = std::map<std::string, SpanTotal>;

/** In-memory span recorder; a null Tracer pointer records nothing. */
class Tracer
{
  public:
    /** RAII span: opens at construction, closes at destruction. */
    class Span
    {
      public:
        Span(Tracer *tracer, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        int64_t index_ = -1;
    };

    /** Drop every recorded span. */
    void clear();

    /** Per-name totals of the spans recorded since the last clear(). */
    SpanTotals summarize() const;

  private:
    struct Record
    {
        const char *name;
        int64_t parent; //!< index of the enclosing span, -1 at top
        int64_t start_ns;
        int64_t end_ns;
    };

    std::vector<Record> records_;
    int64_t open_ = -1; //!< innermost open span
};

/** Total of @p name in @p totals (zero when it never ran). */
SpanTotal spanTotal(const SpanTotals &totals, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH_
