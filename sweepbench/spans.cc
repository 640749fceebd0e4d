#include "spans.hh"

#include <cstdio>
#include <fstream>

#include "base/logging.hh"

namespace sweepbench {

std::map<std::string, std::int64_t>
SpanRecorder::selfNsByName(std::size_t first) const
{
    std::vector<std::int64_t> self(spans_.size() - first);
    for (std::size_t i = first; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[i - first] += s.endNs - s.startNs;
        if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= first)
            self[static_cast<std::size_t>(s.parent) - first] -=
                s.endNs - s.startNs;
    }
    std::map<std::string, std::int64_t> byName;
    for (std::size_t i = first; i < spans_.size(); ++i)
        byName[spans_[i].name] += self[i - first];
    return byName;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fgp_fatal("cannot write trace file '", path, "'");
    // Timestamps are thread CPU microseconds: one thread, one timeline.
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(line, sizeof line,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                      "\"parent\":%d}}\n",
                      i ? "," : "", s.name,
                      static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                      s.parent);
        out << line;
    }
    out << "]}\n";
    if (!out)
        fgp_fatal("error writing trace file '", path, "'");
}

} // namespace sweepbench
