/**
 * @file
 * In-memory span recorder for the traced run. Each span is a layer call
 * made by the benchmark (name, start, end, parent), timed with this
 * thread's CPU clock. Spans stay in memory until the run ends, when they
 * are summed into per-layer self times and written as Chrome trace-event
 * JSON. A disabled recorder reads no clock at all, which is what the
 * untraced end-to-end runs use.
 */

#ifndef SWEEPBENCH_SPANS_HH
#define SWEEPBENCH_SPANS_HH

#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace sweepbench {

/** This thread's CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID). */
inline std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

struct Span
{
    const char *name = nullptr; ///< static string: a layer call name
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;  ///< index into the span list, -1 for roots
};

class SpanRecorder
{
  public:
    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, std::int32_t index)
            : rec_(rec), index_(index)
        {
        }
        ~Scope()
        {
            if (rec_)
                rec_->close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        std::int32_t index_;
    };

    bool enabled = false;

    /** Open a span under the innermost open one. */
    [[nodiscard]] Scope
    open(const char *name)
    {
        if (!enabled)
            return Scope(nullptr, -1);
        const auto index = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, threadCpuNs(), 0, current_});
        current_ = index;
        return Scope(this, index);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time (duration minus the time covered by direct children) of
     * every span in [first, end), summed by name.
     */
    std::map<std::string, std::int64_t> selfNsByName(std::size_t first) const;

    /** Write every span as a Chrome trace-event "X" record. */
    void writeChromeTrace(const std::string &path) const;

  private:
    void
    close(std::int32_t index)
    {
        Span &s = spans_[static_cast<std::size_t>(index)];
        s.endNs = threadCpuNs();
        current_ = s.parent;
    }

    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

} // namespace sweepbench

#endif // SWEEPBENCH_SPANS_HH
