#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced replay.  A span is (name, start,
/// end, parent span, request id); spans of one request share the id.  The
/// recorder is single-threaded: work fanned out to other threads records
/// its timestamps into its own slot and the driving thread adds the spans
/// after the join.  Everything is written out as JSON once, at the end.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a,
                              clock_type::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct span {
    const char* name = "";
    double start = 0.0;  ///< seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    long request = -1;
};

class tracer {
  public:
    explicit tracer(clock_type::time_point origin) : origin_(origin) {}

    /// Record a finished span; returns its index.
    int add(const char* name, clock_type::time_point start,
            clock_type::time_point end, int parent, long request) {
        spans_.push_back({name, seconds_between(origin_, start),
                          seconds_between(origin_, end), parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    /// Open a span now; close it with finish().
    int open(const char* name, int parent, long request) {
        const auto now = clock_type::now();
        return add(name, now, now, parent, request);
    }
    double finish(int idx) {
        span& s = spans_[static_cast<std::size_t>(idx)];
        s.end = seconds_between(origin_, clock_type::now());
        return s.end - s.start;
    }

    [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

    /// Write {"spans": [...]} to `path`; false when the file could not be
    /// written.
    bool write_json(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        std::fprintf(f, "{\"spans\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                         "\"end\": %.9f, \"parent\": %d, \"request\": %ld}%s\n",
                         i, s.name, s.start, s.end, s.parent, s.request,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    clock_type::time_point origin_;
    std::vector<span> spans_;
};

}  // namespace perfbench
