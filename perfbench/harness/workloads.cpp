#include "workloads.hpp"

#include <cmath>
#include <exception>
#include <memory>
#include <numbers>

#include "apps/fft.hpp"
#include "apps/fft2d_app.hpp"
#include "apps/master_slave_pi.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/ip_core.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using namespace snoc;

/// One trial's network plus how to read its application.
struct Sim {
    std::unique_ptr<GossipNetwork> net;
    std::function<bool()> done;
    std::function<bool()> output_ok;  ///< the app computed the right result.
    std::function<void(Digest&)> outcome;
    std::function<std::size_t()> frames;
    /// When set, "completed" also requires this once the run ends (the
    /// broadcast's predicate stops at quiescence as well as at coverage).
    std::function<bool()> success;
};

/// Run one trial.  Untraced, the simulator is driven through run_until()
/// and drain(); traced, through the same loops written out around step()
/// so each round gets a span.  Both paths make the same calls in the same
/// order, so they produce identical statistics (the harness checks it).
TrialResult run_trial(std::size_t cell, std::uint64_t seed, std::int32_t id,
                      const std::function<Sim()>& make, Round cap, bool drain,
                      bool traced) {
    TrialResult r;
    r.cell = cell;
    r.seed = seed;
    try {
        SpanLog& log = r.spans;
        const std::int64_t t0 = now_ns();
        const std::int32_t trial = traced ? log.open("trial", -1, id) : -1;
        std::int32_t span = traced ? log.open("setup", trial, id) : -1;
        Sim sim = make();
        const std::int64_t t1 = now_ns();
        GossipNetwork& net = *sim.net;
        if (traced) {
            log.close(span);
            // run_until() starts the network (crash roll, on_start hooks)
            // before its first completion check; crashes() does the same.
            span = log.open("start", trial, id);
            (void)net.crashes();
            log.close(span);
            bool done = sim.done();
            while (!done && net.round() < cap) {
                span = log.open("step", trial, id);
                net.step();
                log.close(span);
                done = sim.done();
            }
            r.completed = done;
            r.rounds = net.round();
            if (drain) {
                for (Round i = 0; i < 1000 && !net.quiescent(); ++i) {
                    span = log.open("step", trial, id);
                    net.step();
                    log.close(span);
                }
            }
        } else {
            const auto run = net.run_until(sim.done, cap);
            r.completed = run.completed;
            r.rounds = run.rounds;
            if (drain) net.drain(1000);
        }
        if (sim.success) r.completed = r.completed && sim.success();
        const std::int64_t t2 = now_ns();
        if (traced) log.close(trial);
        r.setup_s = static_cast<double>(t1 - t0) * 1e-9;
        r.wall_s = static_cast<double>(t2 - t0) * 1e-9;
        r.total_rounds = net.round();
        r.metrics = net.metrics();
        Digest d;
        sim.outcome(d);
        r.outcome = d.value();
        r.frames = sim.frames ? sim.frames() : 0;
        const auto ledger = net.ledger();
        if (!ledger.balanced()) {
            r.ok = false;
            r.error = "unbalanced " + ledger.to_string();
        } else if (!sim.output_ok()) {
            r.ok = false;
            r.error = "wrong application output";
        }
    } catch (const std::exception& e) {
        r.ok = false;
        r.error = std::string("threw: ") + e.what();
    } catch (...) {
        r.ok = false;
        r.error = "threw a non-std exception";
    }
    return r;
}

GossipConfig config_with(double p, std::uint16_t ttl) {
    GossipConfig c;
    c.forward_p = p;
    c.default_ttl = ttl;
    return c;
}

std::string format_value(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

void digest_inputs(Workload& w) {
    Digest d;
    d.add_string(w.name);
    for (const auto& c : w.cells) d.add_string(c);
    for (const auto& [cell, seed] : w.trials_of(0)) {
        d.add(cell);
        d.add(seed);
    }
    w.inputs_digest = d.value();
}

// --- mp3_upset ---------------------------------------------------------------
// The Fig. 4-8 MP3 pipeline on a 4x4 mesh under random-bit-error upsets:
// the fault-injection hot path.  Five cells of fig4_8's (p, p_upset)
// plane, each run as fig4_8 runs it: five repeats through one
// run_trials call, so the fifth trial holds three workers idle.  The
// (p = 0.25, p_upset = 0.8) corner never finishes, so its trials run to
// the 4000-round cap; at p_upset = 0.5 trials corrupt the most bits and
// are the slowest.  Every other cell finishes: a cell that only
// sometimes finishes (p = 0.5 at p_upset = 0.8 fails ~9% of trials)
// would swing a batch's work by a whole capped trial from seed to seed.
// The full 5x5 plane at five repeats takes over 25 s, too long for a
// batch.

apps::Mp3Config fig4_8_mp3() {
    apps::Mp3Config c;
    c.frame_samples = 64;
    c.frame_count = 12;
    c.frame_interval = 2;
    c.band_count = 8;
    c.frame_budget_bits = 400;
    c.reservoir_capacity = 800;
    return c;
}

Workload mp3_upset(std::uint64_t seed) {
    constexpr std::size_t kRepeats = 5; // fig4_8's default
    constexpr Round kCap = 4000;
    Workload w;
    w.name = "mp3_upset";
    w.workers = 4;
    // Trials cost ~0.3 s in three cells and ~0.85 s at p_upset = 0.5, so
    // the median lies inside the cheap cluster and p80 inside the dear.
    w.tail_percentile = 80.0;
    w.min_trials = 60;
    w.engine = "lockstep";
    w.forward_ps = {0.25, 0.75, 1.0};
    w.upset_ps = {0.2, 0.5, 0.8};
    w.mp3 = fig4_8_mp3();
    const std::vector<std::pair<double, double>> grid{
        {0.25, 0.8}, {0.75, 0.2}, {1.0, 0.2}, {0.75, 0.5}, {1.0, 0.5}};
    for (const auto& [p, u] : grid)
        w.cells.push_back("p=" + format_value(p) + " upset=" + format_value(u));
    w.trials_of = [seed, n_cells = grid.size()](std::size_t b) {
        const std::uint64_t key = derive_seed(derive_seed(seed, 0x6d7033ULL), b);
        Trials trials;
        for (std::size_t c = 0; c < n_cells; ++c)
            for (std::size_t r = 0; r < kRepeats; ++r)
                trials.emplace_back(c, derive_seed(derive_seed(key, c), r));
        return trials;
    };
    digest_inputs(w);

    const auto mp3 = *w.mp3;
    w.run_batch = [grid, mp3, workers = w.workers](const Trials& trials, bool traced) {
        BatchResult batch;
        for (std::size_t first = 0; first < trials.size(); first += kRepeats) {
            auto cell_trials = run_trials(
                kRepeats,
                [&](std::uint64_t r) {
                    const std::size_t i = first + r;
                    const auto [cell, trial_seed] = trials[i];
                    const auto [p, upset] = grid[cell];
                    const auto make = [&, p = p, upset = upset, trial_seed = trial_seed] {
                        FaultScenario s;
                        s.p_upset = upset;
                        Sim sim;
                        sim.net = std::make_unique<GossipNetwork>(
                            Topology::mesh(4, 4), config_with(p, 60), s, trial_seed);
                        auto& out = apps::deploy_mp3(*sim.net, mp3);
                        sim.done = [&out] { return out.complete(); };
                        sim.output_ok = [&out, &mp3] {
                            return !out.complete() ||
                                   (out.frames_received() == mp3.frame_count &&
                                    out.total_coded_bits() > 0);
                        };
                        sim.outcome = [&out](Digest& d) {
                            d.add(out.frames_received());
                            d.add(out.frames_skipped());
                            d.add(out.total_coded_bits());
                            d.add(out.completion_round().value_or(0));
                            for (const auto& chunk : out.stream_chunks())
                                for (std::byte b : chunk) d.add(b);
                        };
                        sim.frames = [&out] { return out.frames_received(); };
                        return sim;
                    };
                    return run_trial(cell, trial_seed, static_cast<std::int32_t>(i), make,
                                     kCap, false, traced);
                },
                workers);
            for (TrialResult& t : cell_trials) batch.trials.push_back(std::move(t));
        }
        return batch;
    };
    return w;
}

// --- pi_fft_clean ------------------------------------------------------------
// The Fig. 4-4 sweep (Master-Slave pi on 5x5, 2-D FFT on 4x4) with no
// faults, through ScenarioRunner: many short trials, so per-round engine
// overhead, encode/CRC and per-trial set-up dominate, and the fault layer
// is bypassed (bernoulli(0) draws no words).

Workload pi_fft_clean(std::uint64_t seed) {
    constexpr std::size_t kRepeats = 3;
    constexpr Round kCap = 3000;
    const std::vector<double> apps_axis{0, 1}; // 0 = FFT (4x4), 1 = pi (5x5)
    const std::vector<double> crashes{0, 1, 2, 3, 4};
    Workload w;
    w.name = "pi_fft_clean";
    w.workers = 4;
    // Trials of 10-30 ms: above ~p95 their host time is mostly the host
    // descheduling a worker (p99 doubled with 15% CPU steal), so the tail
    // is p90, inside the costliest cells' (FFT at p >= 0.75) cluster.
    w.tail_percentile = 90.0;
    w.min_trials = 1080;
    w.engine = "lockstep";
    w.forward_ps = {1.0, 0.75, 0.5, 0.25};
    w.upset_ps = {0.0};
    for (double a : apps_axis)
        for (double k : crashes)
            for (double p : w.forward_ps)
                w.cells.push_back(std::string(a == 0 ? "fft" : "pi") + " crashes=" +
                                  format_value(k) + " p=" + format_value(p));
    // ScenarioRunner seeds repeat r of every cell with base_seed + r.
    w.trials_of = [seed, n_cells = w.cells.size()](std::size_t b) {
        const std::uint64_t base_seed = derive_seed(derive_seed(seed, 0x7069666674ULL), b);
        Trials trials;
        for (std::size_t c = 0; c < n_cells; ++c)
            for (std::size_t r = 0; r < kRepeats; ++r) trials.emplace_back(c, base_seed + r);
        return trials;
    };
    digest_inputs(w);

    ExperimentSpec spec;
    spec.name = "perfbench pi_fft_clean";
    spec.axes = {{"app", apps_axis}, {"crashes", crashes}, {"p", w.forward_ps}};
    spec.repeats = kRepeats;
    spec.max_rounds = kCap;
    spec.jobs = w.workers;
    const std::size_t n_crashes = crashes.size(), n_ps = w.forward_ps.size();
    w.run_batch = [spec, n_crashes, n_ps](const Trials& trials, bool traced) {
        BatchResult batch;
        batch.trials.resize(trials.size());
        ExperimentSpec run = spec;
        run.base_seed = trials.front().second;
        // Each (cell, repeat) writes only its own slot of batch.trials.
        run.trial = [&batch, &run, n_crashes, n_ps, traced](const SweepPoint& pt,
                                                           std::uint64_t seed) {
            const std::size_t cell =
                (pt.index_of("app") * n_crashes + pt.index_of("crashes")) * n_ps +
                pt.index_of("p");
            const std::size_t repeat = static_cast<std::size_t>(seed - run.base_seed);
            const std::size_t slot = cell * run.repeats + repeat;
            const bool is_fft = pt.value("app") == 0;
            const auto k = static_cast<std::size_t>(pt.value("crashes"));
            const double p = pt.value("p");
            const auto make = [is_fft, k, p, seed] {
                Sim sim;
                sim.net = std::make_unique<GossipNetwork>(
                    Topology::mesh(is_fft ? 4 : 5, is_fft ? 4 : 5), config_with(p, 30),
                    FaultScenario::none(), seed);
                GossipNetwork& net = *sim.net;
                net.force_exact_tile_crashes(k);
                if (is_fft) {
                    apps::FftDeployment d;
                    d.duplicate_workers = true;
                    auto& root = apps::deploy_fft2d(net, d, seed + 1);
                    net.protect(d.root_tile);
                    for (TileId t : d.worker_tiles) net.protect(t);
                    const std::size_t n = d.image_size;
                    sim.done = [&root] { return root.done(); };
                    sim.output_ok = [&root, n, seed] {
                        return !root.done() ||
                               apps::max_abs_diff(root.spectrum(),
                                                  apps::fft2d(apps::make_test_image(
                                                      n, seed + 1))) < 1e-3;
                    };
                    sim.outcome = [&root](Digest& d) {
                        d.add(root.completion_round().value_or(0));
                        if (!root.done()) return;
                        for (const auto& z : root.spectrum().data) {
                            d.add(z.real());
                            d.add(z.imag());
                        }
                    };
                } else {
                    apps::PiDeployment d;
                    d.duplicate_slaves = true;
                    auto& master = apps::deploy_pi(net, d);
                    net.protect(d.master_tile);
                    // With replication, one copy of each task is protected
                    // and the other may crash (the fig4_4 deployment).
                    for (TileId t : {6u, 7u, 8u, 11u, 13u, 16u, 17u, 18u}) net.protect(t);
                    sim.done = [&master] { return master.done(); };
                    sim.output_ok = [&master] {
                        return !master.done() ||
                               std::abs(master.pi() - std::numbers::pi) < 1e-6;
                    };
                    sim.outcome = [&master](Digest& d) {
                        d.add(master.completion_round().value_or(0));
                        if (master.done()) d.add(master.pi());
                    };
                }
                return sim;
            };
            TrialResult& r = batch.trials[slot];
            r = run_trial(cell, seed, static_cast<std::int32_t>(slot), make,
                          run.max_rounds, true, traced);
            RunReport report;
            report.completed = r.completed;
            report.rounds = r.rounds;
            report.seed = seed;
            report.metrics = r.metrics;
            return report;
        };
        (void)ScenarioRunner(run).run();
        return batch;
    };
    return w;
}

// --- mesh_broadcast ----------------------------------------------------------
// One dense single-source broadcast on a 128x128 mesh per batch, on the
// event engine with four intra-trial shards: one huge trial instead of
// many tiny ones (active-set bookkeeping, the in-flight ring, shard
// scaling, host memory).  The source is the corner tile, as in
// ablation_scalability; the seed drives the gossip draws, so every seed
// costs about the same.

class BroadcastSource final : public IpCore {
public:
    void on_start(TileContext& ctx) override { ctx.send(kBroadcast, 0xB1, {std::byte{7}}); }
    void on_message(const Message&, TileContext&) override {}
};

Workload mesh_broadcast(std::uint64_t seed) {
    constexpr std::size_t kSide = 128;
    constexpr std::uint16_t kTtl = 512;
    constexpr Round kCap = 2048;
    Workload w;
    w.name = "mesh_broadcast";
    w.workers = 1;
    // A trial takes over a second, so a run holds about twenty: the
    // highest percentile with ten beyond it is the median.
    w.tail_percentile = 50.0;
    w.min_trials = 20;
    w.shards = 4;
    w.engine = "event";
    w.forward_ps = {0.5};
    w.upset_ps = {0.0};
    w.cells = {"128x128 p=0.5 ttl=512"};
    w.trials_of = [seed](std::size_t b) {
        return Trials{{0, derive_seed(derive_seed(seed, 0x6d657368ULL), b)}};
    };
    digest_inputs(w);

    w.run_batch = [shards = w.shards](const Trials& trials, bool traced) {
        BatchResult batch;
        for (std::size_t i = 0; i < trials.size(); ++i) {
            const auto [cell, trial_seed] = trials[i];
            const auto make = [trial_seed = trial_seed, shards] {
                Sim sim;
                sim.net = std::make_unique<GossipNetwork>(
                    Topology::mesh(kSide, kSide), config_with(0.5, kTtl),
                    FaultScenario::none(), trial_seed,
                    EngineSelect{EngineKind::Event, shards});
                GossipNetwork& net = *sim.net;
                net.attach(0, std::make_unique<BroadcastSource>());
                const MessageId rumor{0, 0};
                // Full coverage or rumor death, whichever comes first.
                sim.done = [&net, rumor] {
                    return net.tiles_knowing(rumor) == kSide * kSide || net.quiescent();
                };
                sim.success = [&net, rumor] {
                    return net.tiles_knowing(rumor) == kSide * kSide;
                };
                // Without faults every tile but the source learns the
                // rumor from exactly one accepted copy.
                sim.output_ok = [&net, rumor] {
                    return net.metrics().packets_accepted + 1 == net.tiles_knowing(rumor);
                };
                sim.outcome = [&net, rumor](Digest& d) { d.add(net.tiles_knowing(rumor)); };
                return sim;
            };
            batch.trials.push_back(run_trial(cell, trial_seed, static_cast<std::int32_t>(i),
                                             make, kCap, false, traced));
        }
        return batch;
    };
    return w;
}

} // namespace

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "mp3_upset") return mp3_upset(seed);
    if (name == "pi_fft_clean") return pi_fft_clean(seed);
    if (name == "mesh_broadcast") return mesh_broadcast(seed);
    return std::nullopt;
}

} // namespace perfbench
