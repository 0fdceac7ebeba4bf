// The benchmark's three workloads.  A run is a sequence of closed
// batches: batch b is a fixed set of deterministic trials derived from
// (--seed, b), executed from one process by at most four trial workers
// (or, for mesh_broadcast, one trial at a time on four intra-trial
// shards).  Successive batches hold different trials of the same shape,
// so a run's medians average over its inputs as well as over host noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/mp3_app.hpp"
#include "common/types.hpp"
#include "core/metrics.hpp"
#include "fault/fault_model.hpp"
#include "spans.hpp"

namespace perfbench {

/// FNV-1a over the bytes of trivially copyable values.
class Digest {
public:
    template <typename T>
    void add(const T& value) {
        const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            h_ ^= bytes[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void add_string(const std::string& s) {
        add(s.size());
        for (char c : s) add(c);
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Everything one trial produced: simulated statistics (the correctness
/// side) and host timings (the performance side).
struct TrialResult {
    std::size_t cell{0};
    std::uint64_t seed{0};
    bool completed{false};          ///< the app (or broadcast) finished.
    snoc::Round rounds{0};          ///< rounds until completion or the cap.
    snoc::Round total_rounds{0};    ///< including the post-completion drain.
    snoc::NetworkMetrics metrics{};
    std::uint64_t outcome{0};       ///< digest of the application's result.
    std::size_t frames{0};          ///< MP3 frames delivered to the output.
    bool ok{true};                  ///< no throw, ledger balanced, output right.
    std::string error;
    double setup_s{0.0};            ///< network construction + app deployment.
    double wall_s{0.0};             ///< the whole trial, set-up included.
    SpanLog spans;                  ///< traced runs only.
};

struct BatchResult {
    std::vector<TrialResult> trials; ///< in trial order.
};

using Trials = std::vector<std::pair<std::size_t, std::uint64_t>>; ///< (cell, seed)

struct Workload {
    std::string name;
    std::size_t workers{1}; ///< trials in flight at once.
    std::size_t shards{1};  ///< event-engine shards inside one trial.
    std::string engine;     ///< round executor: "lockstep" or "event".
    std::vector<std::string> cells; ///< sweep-cell labels, in cell order.
    /// trial_ms_tail's percentile and the trials an untraced run collects
    /// at least: fixed per workload so that at least ten trials lie beyond
    /// the percentile on any machine, and a faster build reports the same
    /// percentile.
    double tail_percentile{50.0};
    std::size_t min_trials{0};
    /// The trials of batch `b`, derived from (--seed, b).
    std::function<Trials(std::size_t b)> trials_of;
    std::uint64_t inputs_digest{0}; ///< of batch 0's trials.

    // Layer-replay inputs: the workload's own parameters.
    std::vector<double> forward_ps;
    std::vector<double> upset_ps;
    snoc::UpsetModel upset_model{snoc::UpsetModel::RandomBitError};
    std::optional<snoc::apps::Mp3Config> mp3;

    std::function<BatchResult(const Trials& trials, bool traced)> run_batch;
};

/// The workload's batches as derived from `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed);

} // namespace perfbench
