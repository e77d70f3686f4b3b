#include "trace.hh"

#include <chrono>

namespace perfbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Tracer::Span::Span(Tracer *tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_)
        return;
    index_ = static_cast<int64_t>(tracer_->records_.size());
    tracer_->records_.push_back({name, tracer_->open_, nowNs(), 0});
    tracer_->open_ = index_;
}

Tracer::Span::~Span()
{
    if (!tracer_)
        return;
    Record &rec = tracer_->records_[static_cast<size_t>(index_)];
    rec.end_ns = nowNs();
    tracer_->open_ = rec.parent;
}

void
Tracer::clear()
{
    records_.clear();
    open_ = -1;
}

SpanTotals
Tracer::summarize() const
{
    std::vector<int64_t> child_ns(records_.size(), 0);
    for (const Record &rec : records_) {
        if (rec.parent >= 0)
            child_ns[static_cast<size_t>(rec.parent)] +=
                rec.end_ns - rec.start_ns;
    }
    SpanTotals totals;
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &rec = records_[i];
        const int64_t dur = rec.end_ns - rec.start_ns;
        SpanTotal &t = totals[rec.name];
        ++t.calls;
        t.incl_ms += static_cast<double>(dur) * 1e-6;
        t.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
    }
    return totals;
}

SpanTotal
spanTotal(const SpanTotals &totals, const std::string &name)
{
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotal{} : it->second;
}

} // namespace perfbench
