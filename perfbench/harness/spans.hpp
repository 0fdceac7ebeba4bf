// In-memory span log for the benchmark's traced runs.
//
// The benchmark records a span around each of its own calls into a
// simulator layer (trial -> setup / start / step, and the replayed layer
// calls); nothing inside the simulator is instrumented.  Spans stay in
// memory while the run measures and are written out once it ends, so the
// file I/O never lands inside a timed interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

struct Span {
    const char* name{""};      ///< static string: "trial", "step", ...
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::int32_t parent{-1};   ///< index in the owning log; -1 = root.
    std::int32_t trial{-1};    ///< trial id within its batch; -1 = none.

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
public:
    /// Open a span starting now; returns its index for close() / parent.
    std::int32_t open(const char* name, std::int32_t parent = -1,
                      std::int32_t trial = -1);
    void close(std::int32_t index);

    /// Append every span of `other`, re-rooting its roots under `parent`.
    void adopt(const SpanLog& other, std::int32_t parent);

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time per span name: each span's duration minus the part of
    /// its interval covered by its children (children of a batch span
    /// run concurrently, so the covered part is the union of their
    /// intervals, not their sum).
    std::map<std::string, double> self_seconds() const;

    /// One tab-separated line per span: index, name, start, end, parent, trial.
    bool write_tsv(const std::string& path) const;

private:
    std::vector<Span> spans_;
};

} // namespace perfbench
