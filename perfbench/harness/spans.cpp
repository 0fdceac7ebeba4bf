#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::int32_t SpanLog::open(const char* name, std::int32_t parent, std::int32_t trial) {
    const std::int64_t t = now_ns();
    spans_.push_back(Span{name, t, t, parent, trial});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanLog::adopt(const SpanLog& other, std::int32_t parent) {
    const auto offset = static_cast<std::int32_t>(spans_.size());
    for (Span s : other.spans_) {
        s.parent = s.parent < 0 ? parent : s.parent + offset;
        spans_.push_back(s);
    }
}

std::map<std::string, double> SpanLog::self_seconds() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                      s.end_ns);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t run_start = 0, run_end = -1;
        for (const auto& [start, end] : kids) {
            if (start > run_end) {
                if (run_end > run_start) covered += run_end - run_start;
                run_start = start;
                run_end = end;
            } else {
                run_end = std::max(run_end, end);
            }
        }
        if (run_end > run_start) covered += run_end - run_start;
        const std::int64_t own = spans_[i].end_ns - spans_[i].start_ns - covered;
        self[spans_[i].name] += static_cast<double>(std::max<std::int64_t>(own, 0)) * 1e-9;
    }
    return self;
}

bool SpanLog::write_tsv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "index\tname\tstart_ns\tend_ns\tparent\ttrial\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
            << s.parent << '\t' << s.trial << '\n';
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
