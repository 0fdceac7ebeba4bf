// perfbench_harness: runs one benchmark workload and prints one JSON line
// of raw results (host timings, simulated statistics, digests).
// perfbench/run.py builds this program, runs it, checks the statistics
// against the committed reference and prints the metrics.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--batches K] [--spans-out FILE]
//
// Batches 0, 1, 2, ... of the workload (each a fixed set of trials
// derived from --seed and the batch index) run while another batch still
// fits in S seconds (at least three), or exactly K with --batches.  With
// --trace 1 each batch also runs traced, alternately before and after its
// untraced run, and the layer replays run after.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::BatchResult;
using perfbench::Digest;
using perfbench::SpanLog;
using perfbench::TrialResult;
using perfbench::Workload;

constexpr std::size_t kMinBatches = 3;
/// Every workload runs at least ~800 steps a traced pass, so the p95 of
/// step times has forty beyond it.
constexpr double kStepTailPercentile = 95.0;

double cpu_seconds() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A nearest-rank percentile with the number of samples beyond it.
struct Tail {
    double value{0.0};
    std::size_t beyond{0};
    std::size_t samples{0};
};

Tail percentile(std::vector<double> v, double q) {
    Tail t;
    t.samples = v.size();
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(v.size()))));
    t.value = v[rank - 1];
    t.beyond = v.size() - rank;
    return t;
}

/// Every simulated statistic of a batch, in trial order.
std::uint64_t sim_digest(const BatchResult& b) {
    Digest d;
    for (const TrialResult& t : b.trials) {
        const auto& m = t.metrics;
        d.add(t.cell);
        d.add(t.seed);
        d.add(t.completed);
        d.add(t.rounds);
        d.add(t.total_rounds);
        d.add(t.outcome);
        d.add(t.frames);
        d.add(t.ok);
        for (std::size_t v :
             {m.rounds, m.packets_sent, m.bits_sent, m.messages_created, m.deliveries,
              m.duplicates_ignored, m.crc_drops, m.upsets_undetected, m.overflow_drops,
              m.ttl_expired, m.crash_drops, m.port_overflow_drops, m.packets_accepted,
              m.skew_deferrals, m.fec_corrected, m.fec_uncorrectable})
            d.add(v);
        for (const auto* vec : {&m.packets_per_round, &m.bits_sent_by_tile, &m.packets_by_link}) {
            d.add(vec->size());
            for (std::size_t v : *vec) d.add(v);
        }
    }
    return d.value();
}

struct Pass {
    std::vector<BatchResult> batches; ///< batch b ran trials_of(b).
    std::vector<double> wall_s, cpu_s;
    SpanLog spans;
};

/// Runs batch `b` of the workload and appends it to `pass`.
void run_batch_into(const Workload& w, std::size_t b, bool traced, Pass& pass) {
    const perfbench::Trials trials = w.trials_of(b);
    const std::int32_t span = traced ? pass.spans.open("batch") : -1;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = perfbench::now_ns();
    BatchResult batch = w.run_batch(trials, traced);
    const std::int64_t t1 = perfbench::now_ns();
    const double cpu1 = cpu_seconds();
    if (traced) {
        pass.spans.close(span);
        for (TrialResult& t : batch.trials) {
            pass.spans.adopt(t.spans, span);
            t.spans = SpanLog{};
        }
    }
    pass.wall_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    pass.cpu_s.push_back(cpu1 - cpu0);
    pass.batches.push_back(std::move(batch));
}

/// Runs batches 0, 1, ... into `untraced` until the budget would be
/// overrun by another batch and at least three batches and `min_trials`
/// trials have run, or exactly `fixed_batches` when that is non-zero.
/// With `traced` set, each batch also runs traced, right before or after
/// its untraced run (alternately), so host drift over the run does not
/// favour either pass.
void measure(const Workload& w, double budget_s, std::size_t min_trials,
             std::size_t fixed_batches, Pass& untraced, Pass* traced) {
    std::size_t trials_run = 0;
    std::vector<double> step_s; // one batch, both passes
    const std::int64_t start = perfbench::now_ns();
    for (std::size_t b = 0;; ++b) {
        if (traced && b % 2 == 1) run_batch_into(w, b, true, *traced);
        run_batch_into(w, b, false, untraced);
        if (traced && b % 2 == 0) run_batch_into(w, b, true, *traced);
        step_s.push_back(untraced.wall_s.back() + (traced ? traced->wall_s.back() : 0.0));
        trials_run += untraced.batches.back().trials.size();
        const std::size_t n = untraced.batches.size();
        if (fixed_batches > 0) {
            if (n >= fixed_batches) break;
        } else if (n >= kMinBatches && trials_run >= min_trials) {
            // Stop before a batch that would overrun the budget, judged by
            // the slowest batch so far.
            const double elapsed = static_cast<double>(perfbench::now_ns() - start) * 1e-9;
            if (elapsed + *std::max_element(step_s.begin(), step_s.end()) > budget_s) break;
        }
    }
}

std::string quote(const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
        if (c == '"' || c == '\\') quoted += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        quoted += c;
    }
    return quoted + "\"";
}

class JsonObject {
public:
    JsonObject& num(const std::string& key, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonObject& integer(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    JsonObject& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
    JsonObject& raw(const std::string& key, const std::string& json) {
        body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

std::string list_json(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::size_t upsets_of(const snoc::NetworkMetrics& m) {
    // Every upset copy that reaches a live receiver is caught by the CRC,
    // slips past it, or meets the FEC decoder.
    return m.crc_drops + m.upsets_undetected + m.fec_corrected + m.fec_uncorrectable;
}

/// End-to-end metrics from an untraced pass.
JsonObject end_to_end(const Workload& w, const Pass& pass) {
    std::vector<double> wall, cpu, tx_rate, round_rate, setup, trial_ms;
    for (std::size_t b = 0; b < pass.batches.size(); ++b) {
        const BatchResult& batch = pass.batches[b];
        double tx = 0, rounds = 0, setup_s = 0;
        for (const TrialResult& t : batch.trials) {
            tx += static_cast<double>(t.metrics.packets_sent);
            rounds += static_cast<double>(t.total_rounds);
            setup_s += t.setup_s;
            trial_ms.push_back(t.wall_s * 1e3);
        }
        wall.push_back(pass.wall_s[b]);
        cpu.push_back(pass.cpu_s[b]);
        tx_rate.push_back(tx / pass.wall_s[b]);
        round_rate.push_back(rounds / pass.wall_s[b]);
        setup.push_back(setup_s);
    }
    const Tail tail = percentile(trial_ms, w.tail_percentile);
    JsonObject e;
    e.num("wall_s", median(wall))
        .num("cpu_s", median(cpu))
        .num("tx_per_s", median(tx_rate))
        .num("rounds_per_s", median(round_rate))
        .num("trial_ms_p50", median(trial_ms))
        .num("trial_ms_tail", tail.value)
        .num("setup_s", median(setup))
        .num("peak_rss_mb", peak_rss_mb());
    JsonObject info;
    info.num("tail_percentile", w.tail_percentile)
        .integer("tail_beyond", tail.beyond)
        .integer("trial_samples", tail.samples)
        .integer("timed_batches", wall.size())
        .integer("workers", w.workers);
    return e.raw("_tail", info.str());
}

/// Traced over untraced wall time of the same batch, minus one: the
/// median over batches, so the first batch's warm-up does not count.
double trace_overhead(const Pass& traced, const Pass& untraced) {
    std::vector<double> ratios;
    for (std::size_t b = 0; b < traced.wall_s.size(); ++b)
        ratios.push_back(traced.wall_s[b] / untraced.wall_s[b]);
    return median(ratios) - 1.0;
}

/// Per-layer metrics from a traced pass (and its untraced twin).
JsonObject per_layer(const Workload& w, const Pass& traced, const Pass& untraced,
                     std::uint64_t seed, SpanLog& replay_log,
                     std::map<std::string, double>& self_s) {
    JsonObject l;
    const BatchResult& first = traced.batches.front();
    snoc::NetworkMetrics total;
    std::size_t frames = 0, upsets = 0, rounds = 0;
    for (const TrialResult& t : first.trials) {
        const auto& m = t.metrics;
        total.packets_sent += m.packets_sent;
        total.bits_sent += m.bits_sent;
        total.packets_accepted += m.packets_accepted;
        total.duplicates_ignored += m.duplicates_ignored;
        total.crc_drops += m.crc_drops;
        total.ttl_expired += m.ttl_expired;
        total.deliveries += m.deliveries;
        upsets += upsets_of(m);
        frames += t.frames;
        rounds += t.total_rounds;
    }

    // Host time per batch, trial, cell and step.
    std::vector<double> busy, busy_frac, setup_ms, step_us;
    std::map<std::size_t, std::vector<double>> cell_trials;
    double tx_timed = 0;
    for (std::size_t b = 0; b < traced.batches.size(); ++b) {
        double sum = 0;
        for (const TrialResult& t : traced.batches[b].trials) {
            sum += t.wall_s;
            setup_ms.push_back(t.setup_s * 1e3);
            cell_trials[t.cell].push_back(t.wall_s);
            tx_timed += static_cast<double>(t.metrics.packets_sent);
        }
        busy.push_back(sum);
        busy_frac.push_back(sum / (static_cast<double>(w.workers) * traced.wall_s[b]));
    }
    double step_s = 0;
    for (const auto& s : traced.spans.spans()) {
        if (std::string(s.name) != "step") continue;
        step_us.push_back(s.seconds() * 1e6);
        step_s += s.seconds();
    }
    double straggler = 0;
    for (auto& [cell, v] : cell_trials)
        straggler = std::max(straggler, *std::max_element(v.begin(), v.end()) / median(v));
    const Tail step_tail = percentile(step_us, kStepTailPercentile);
    const double trial_busy_s = median(busy);

    perfbench::ReplayInputs in;
    in.seed = seed;
    in.forward_ps = w.forward_ps;
    in.upset_ps = w.upset_ps;
    in.upset_model = w.upset_model;
    const double wire_bytes = total.packets_sent == 0
                                  ? 0.0
                                  : static_cast<double>(total.bits_sent) /
                                        static_cast<double>(total.packets_sent) / 8.0;
    in.wire_bytes = static_cast<std::size_t>(std::lround(wire_bytes));
    in.mp3 = w.mp3;
    const perfbench::ReplayResult r = perfbench::replay_layers(in, replay_log);

    const double tx = static_cast<double>(total.packets_sent);
    l.integer("sim.trials", first.trials.size())
        .num("sim.trial_busy_s", trial_busy_s)
        .num("sim.pool_busy_frac", median(busy_frac))
        .num("sim.cell_straggler_ratio", straggler)
        .num("core.setup_ms", median(setup_ms))
        .num("core.step_us_p50", median(step_us))
        .num("core.step_us_tail", step_tail.value)
        .num("core.ns_per_tx", tx_timed > 0 ? step_s / tx_timed * 1e9 : 0.0)
        .integer("core.rounds", rounds)
        .integer("core.transmissions", total.packets_sent)
        .integer("core.accepted", total.packets_accepted)
        .integer("core.duplicates", total.duplicates_ignored)
        .integer("core.crc_drops", total.crc_drops)
        .integer("core.ttl_expired", total.ttl_expired)
        .integer("core.deliveries", total.deliveries)
        .num("core.useful_frac", tx > 0 ? static_cast<double>(total.packets_accepted) / tx : 0.0)
        .integer("fault.upsets", upsets)
        .num("fault.upset_roll_ns", r.upset_roll_ns)
        .num("fault.apply_upset_ns", r.apply_upset_ns)
        .num("fault.est_busy_frac",
             static_cast<double>(upsets) * r.apply_upset_ns * 1e-9 / trial_busy_s)
        .num("noc.wire_bytes_mean", wire_bytes)
        .num("noc.encode_ns", r.encode_ns)
        .num("noc.crc_ok_wire_ns", r.crc_ok_wire_ns)
        .num("noc.decode_wire_ns", r.decode_wire_ns)
        // Every transmitted copy is decoded (CRC included) on receipt;
        // encodes, one per held message per round, are left out.
        .num("noc.est_busy_frac", tx * r.decode_wire_ns * 1e-9 / trial_busy_s)
        .num("rng.bernoulli_ns", r.bernoulli_ns)
        .num("rng.normal_ns", r.normal_ns)
        .integer("apps.frames", frames)
        .num("apps.mp3_frame_us", r.mp3_frame_us)
        .num("telemetry.trace_overhead_frac", trace_overhead(traced, untraced));
    JsonObject info;
    info.num("step_tail_percentile", kStepTailPercentile)
        .integer("step_samples", step_tail.samples)
        .integer("replay_wire_bytes", in.wire_bytes);
    l.raw("_info", info.str());
    self_s = traced.spans.self_seconds();
    for (const auto& [name, s] : replay_log.self_seconds()) self_s[name] += s;
    return l;
}

int usage(const char* why) {
    std::cerr << "perfbench_harness: " << why
              << "\nusage: perfbench_harness --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--batches K] [--spans-out FILE]\n";
    return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
    try {
        out = std::stoull(s);
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

} // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0) return usage("every flag takes one value");
    for (const auto& [key, value] : args)
        if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
            key != "batches" && key != "spans-out")
            return usage(("unknown flag --" + key).c_str());
    std::uint64_t seed = 0, seconds = 0, trace = 0, batches = 0;
    if (!args.count("workload") || !parse_u64(args["seed"], seed) ||
        !parse_u64(args["seconds"], seconds) || !parse_u64(args["trace"], trace) || trace > 1)
        return usage("--workload, --seed, --seconds and --trace 0|1 are required");
    if (args.count("batches") && !parse_u64(args["batches"], batches))
        return usage("--batches takes a whole number");
    if (seconds == 0 && batches == 0) return usage("--seconds must be at least 1");

    // Pin the environment the simulator reads, before the shared pool
    // exists: four workers, the lockstep default engine.
    setenv("SNOC_JOBS", "4", 1);
    setenv("SNOC_ENGINE", "lockstep", 1);
    // The shared pool starts lazily, once per process: timed here, once,
    // and reported beside the metrics, not inside setup_s.
    const std::int64_t pool_t0 = perfbench::now_ns();
    (void)snoc::ThreadPool::shared();
    const double pool_start_ms = static_cast<double>(perfbench::now_ns() - pool_t0) * 1e-6;

    const auto workload = perfbench::make_workload(args["workload"], seed);
    if (!workload) return usage(("unknown workload " + args["workload"]).c_str());
    const Workload& w = *workload;

    const double budget = static_cast<double>(seconds);
    // A traced run reports no end-to-end metric, so its untraced pass
    // (the overhead baseline) needs no minimum trial count.
    Pass untraced, traced;
    measure(w, budget, trace ? 0 : w.min_trials, batches, untraced, trace ? &traced : nullptr);
    SpanLog replay_log;
    std::map<std::string, double> self_s;
    JsonObject layers;
    if (trace) {
        layers = per_layer(w, traced, untraced, seed, replay_log, self_s);
        if (args.count("spans-out")) {
            SpanLog all = traced.spans;
            all.adopt(replay_log, -1);
            if (!all.write_tsv(args["spans-out"]))
                std::cerr << "perfbench_harness: cannot write " << args["spans-out"] << "\n";
        }
    }

    // Correctness: every trial ran clean, and each traced batch
    // reproduced the statistics of the untraced batch with the same trials.
    const std::uint64_t digest = sim_digest(untraced.batches.front());
    std::size_t attempted = 0, failed = 0, mismatched = 0;
    std::vector<std::string> errors;
    for (std::size_t b = 0; b < traced.batches.size() && b < untraced.batches.size(); ++b)
        if (sim_digest(traced.batches[b]) != sim_digest(untraced.batches[b])) ++mismatched;
    for (const Pass* pass : std::array<const Pass*, 2>{&untraced, &traced})
        for (const BatchResult& b : pass->batches)
            for (const TrialResult& t : b.trials) {
                ++attempted;
                if (t.ok) continue;
                ++failed;
                if (errors.size() < 5)
                    errors.push_back(w.cells[t.cell] + " seed " + std::to_string(t.seed) +
                                     ": " + t.error);
            }

    // Per-cell statistics for the drift check: of batch 0 (compared with
    // the seed's own reference record), and of every untraced batch.
    struct CellStats {
        std::size_t n{0}, completed{0};
        double sum{0}, sumsq{0};
        std::size_t n_all{0}, completed_all{0};
        double sum_all{0};
    };
    std::vector<CellStats> cells(w.cells.size());
    for (const TrialResult& t : untraced.batches.front().trials) {
        CellStats& c = cells[t.cell];
        ++c.n;
        if (!t.completed) continue;
        ++c.completed;
        c.sum += t.rounds;
        c.sumsq += static_cast<double>(t.rounds) * t.rounds;
    }
    for (const BatchResult& b : untraced.batches)
        for (const TrialResult& t : b.trials) {
            CellStats& c = cells[t.cell];
            ++c.n_all;
            if (!t.completed) continue;
            ++c.completed_all;
            c.sum_all += t.rounds;
        }
    std::string cells_json = "[";
    for (std::size_t c = 0; c < cells.size(); ++c) {
        JsonObject o;
        o.str("cell", w.cells[c])
            .integer("n", cells[c].n)
            .integer("completed", cells[c].completed)
            .num("sum_rounds", cells[c].sum)
            .num("sumsq_rounds", cells[c].sumsq)
            .integer("n_all", cells[c].n_all)
            .integer("completed_all", cells[c].completed_all)
            .num("sum_rounds_all", cells[c].sum_all);
        cells_json += (c ? "," : "") + o.str();
    }
    cells_json += "]";
    // One row per trial of that batch: cell, completed, rounds, host ms.
    std::string trials_json = "[";
    for (const TrialResult& t : untraced.batches.front().trials) {
        char row[96];
        std::snprintf(row, sizeof row, "%s[%zu,%d,%u,%.3f]", trials_json.size() > 1 ? "," : "",
                      t.cell, t.completed ? 1 : 0, static_cast<unsigned>(t.rounds),
                      t.wall_s * 1e3);
        trials_json += row;
    }
    trials_json += "]";
    std::string errors_json = "[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        errors_json += (i ? "," : "") + quote(errors[i]);
    errors_json += "]";
    std::string self_json;
    {
        JsonObject o;
        for (const auto& [name, s] : self_s) o.num(name, s);
        self_json = o.str();
    }

    JsonObject out;
    out.str("workload", w.name)
        .integer("seed", seed)
        .integer("trace", trace)
        .integer("workers", w.workers)
        .integer("shards", w.shards)
        .str("engine", w.engine)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .integer("check_level", SNOC_CHECK_LEVEL)
        .str("inputs_digest", hex(w.inputs_digest))
        .str("sim_digest", hex(digest))
        .integer("attempted", attempted)
        .integer("failed", failed)
        .integer("mismatched_batches", mismatched)
        .raw("errors", errors_json)
        .raw("batch_wall_s", list_json(untraced.wall_s))
        .raw("batch_cpu_s", list_json(untraced.cpu_s))
        .integer("untraced_batches", untraced.batches.size())
        .integer("traced_batches", traced.batches.size())
        .num("pool_start_ms", pool_start_ms)
        .raw("end_to_end", end_to_end(w, untraced).str())
        .raw("per_layer", trace ? layers.str() : "{}")
        .raw("self_s", self_json)
        .raw("cells", cells_json)
        .raw("trials", trials_json);
    std::cout << out.str() << std::endl;
    return 0;
}
