// Sweep heartbeat streaming: machine-readable progress records a running
// ScenarioRunner appends to a JSONL file, and the loader/renderer
// snoc_top uses to turn that file into a live terminal summary.
//
// The runner reports progress through the narrow ProgressSink interface
// (one update() call per trial/cell/sweep boundary, already serialized by
// the writer's mutex); HeartbeatWriter decides cadence — every Nth trial,
// plus every cell boundary and the final sweep-done record — and stamps
// each emitted record with a sequence number, elapsed wall time, a linear
// ETA, and live MetricsRegistry deltas (rounds simulated since the
// previous heartbeat).
//
// Heartbeats are *observability*, not results: the wall-clock readings
// here are the reason this file sits on the determinism allowlist, and
// nothing a heartbeat carries may ever feed back into a simulation.
// Result artifacts (tables, manifests, traces) stay byte-deterministic
// with or without a heartbeat stream attached.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/annotations.hpp"

namespace snoc {

/// One progress callback from the runner.  `cell_seconds` >= 0 only when
/// this update closes a cell; `sweep_done` marks the final update.
struct ProgressUpdate {
    std::string experiment;
    std::size_t cells_total{0};
    std::size_t cells_done{0};
    std::size_t trials_total{0};
    std::size_t trials_done{0};
    std::size_t retries{0};
    double cell_seconds{-1.0};
    bool sweep_done{false};
};

/// Anything that wants to watch a sweep make progress.  Calls may come
/// from any worker thread; implementations serialize internally.
class ProgressSink {
public:
    virtual ~ProgressSink() = default;
    virtual void update(const ProgressUpdate& update) = 0;
};

/// One emitted heartbeat, as written to (and parsed back from) the JSONL
/// stream.  Field order here matches the wire order.
struct HeartbeatRecord {
    std::uint64_t seq{0};
    double elapsed_seconds{0.0};
    std::string experiment;
    std::size_t cells_total{0};
    std::size_t cells_done{0};
    std::size_t trials_total{0};
    std::size_t trials_done{0};
    std::size_t retries{0};
    double cell_seconds{-1.0};    ///< wall time of the just-closed cell, if any.
    double eta_seconds{-1.0};     ///< linear extrapolation; -1 when unknowable.
    std::uint64_t rounds_total{0}; ///< engine rounds, registry.
    std::uint64_t rounds_delta{0}; ///< since the previous heartbeat.
    std::uint64_t postmortems{0};
    bool done{false};
};

/// Serialise one record as a single JSONL line (trailing newline).
void write_heartbeat(const HeartbeatRecord& record, std::ostream& os);

/// Parse heartbeat lines from a stream; unparseable lines are skipped
/// (the writer may be mid-line when a tail reads the file).
std::vector<HeartbeatRecord> load_heartbeats(std::istream& is);
std::vector<HeartbeatRecord> load_heartbeats_file(const std::string& path);

/// Render the latest state of a heartbeat sequence as a short terminal
/// summary (progress bar, rates, ETA) — the body of `snoc_top`.
void render_top(const std::vector<HeartbeatRecord>& records, std::ostream& os);

/// ProgressSink writing heartbeats to a JSONL file at a configurable
/// cadence: every `every_n` trial completions, plus every cell boundary
/// and the sweep-done record (cadence 0 means boundaries only).  Opens
/// the file in truncate mode and flushes after each record so a tailing
/// snoc_top sees whole lines promptly.  Thread-safe.
class HeartbeatWriter final : public ProgressSink {
public:
    HeartbeatWriter(const std::string& path, std::size_t every_n);
    ~HeartbeatWriter() override;

    void update(const ProgressUpdate& update) override;

    std::uint64_t emitted() const;

private:
    void emit_locked(const ProgressUpdate& update)
        SNOC_REQUIRES(mutex_); // [mutation-point:requires-emit-locked]

    mutable Mutex mutex_; // [mutation-point:annotated-mutex]
    std::ofstream os_ SNOC_GUARDED_BY(mutex_);
    std::size_t every_n_ SNOC_GUARDED_BY(mutex_);
    std::uint64_t seq_ SNOC_GUARDED_BY(mutex_){0};
    std::uint64_t last_rounds_ SNOC_GUARDED_BY(mutex_){0};
    std::chrono::steady_clock::time_point start_ SNOC_GUARDED_BY(mutex_);
};

} // namespace snoc
