// Frozen outputs of the gossip round engine.  Every file under
// tests/golden/engine/ was captured from the dense reference executor
// that once walked every tile in every phase of every round, before the
// sparse active-set executor became GossipNetwork's only round loop (see
// CHANGES.md).  The sparse executor touches only tiles with arrivals,
// held rumors or IP cores, and splits the mesh into tile strips; these
// tests require that neither skipping idle tiles nor the strip count
// changes anything a run can observe: full NetworkMetrics (per-round,
// per-tile and per-link vectors included), per-kind trace counts,
// elapsed local time as a hexfloat, the spread of the broadcast rumor
// and the gossip RunReport.  Each shape runs at shards {1, 2, 8}, traced
// and untraced (tracing must stay a pure observer, and the untraced
// receive path delivers in bucket order rather than sorted).
//
// To re-capture after an intended behaviour change:
//   SNOC_UPDATE_GOLDEN=1 build/tests/test_engine_golden
// and review the diff under tests/golden/engine/ like any other change.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/master_slave_pi.hpp"
#include "check/invariant_auditor.hpp"
#include "core/engine.hpp"
#include "sim/backends.hpp"
#include "telemetry/export.hpp"

namespace snoc {
namespace {

class BroadcastSource final : public IpCore {
public:
    explicit BroadcastSource(std::size_t payload_bytes = 24)
        : payload_bytes_(payload_bytes) {}
    void on_start(TileContext& ctx) override {
        ctx.send(kBroadcast, 0xEE, std::vector<std::byte>(payload_bytes_, std::byte{7}));
    }
    void on_message(const Message&, TileContext&) override {}

private:
    std::size_t payload_bytes_;
};

class ChattySource final : public IpCore {
public:
    explicit ChattySource(TileId dest) : dest_(dest) {}
    void on_round(TileContext& ctx) override {
        if (ctx.round() % 3 == 0 && sent_ < 6) {
            ctx.send(dest_, 0xC0 + sent_, {static_cast<std::byte>(sent_)});
            ++sent_;
        }
    }
    void on_message(const Message&, TileContext&) override {}

private:
    TileId dest_;
    std::size_t sent_{0};
};

class Sink final : public IpCore {
public:
    void on_message(const Message&, TileContext&) override {}
};

// --- Image helpers -----------------------------------------------------------

void write_vector(std::ostream& os, const char* name,
                  const std::vector<std::size_t>& values) {
    os << name;
    for (std::size_t v : values) os << ' ' << v;
    os << '\n';
}

void write_metrics(const NetworkMetrics& m, std::ostream& os) {
    write_metrics_json(m, os);
    write_vector(os, "packets_per_round", m.packets_per_round);
    write_vector(os, "bits_sent_by_tile", m.bits_sent_by_tile);
    write_vector(os, "packets_by_link", m.packets_by_link);
}

/// One line per trace-event kind; every such line starts with "trace ",
/// which is how an untraced run's image is compared (see strip_trace).
void write_trace_counts(const CountingSink& counts, std::ostream& os) {
    for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
        const auto kind = static_cast<TraceEventKind>(k);
        os << "trace " << to_string(kind) << ' ' << counts.count(kind) << '\n';
    }
}

std::string strip_trace(const std::string& image) {
    std::istringstream in(image);
    std::ostringstream out;
    for (std::string line; std::getline(in, line);)
        if (line.rfind("trace ", 0) != 0) out << line << '\n';
    return out.str();
}

// --- Shape 1: the scenario grid (9 scenarios x seeds {1, 7, 42}) ------------

struct Scenario {
    std::string name;
    GossipConfig config;
    FaultScenario faults;
    bool unicast_traffic{false};
    bool use_pi_app{false};
    bool forward_cap{false};
    bool islands{false};
};

std::vector<Scenario> scenarios() {
    std::vector<Scenario> out;

    Scenario plain;
    plain.name = "plain_broadcast";
    plain.config.forward_p = 0.5;
    plain.config.default_ttl = 16;
    out.push_back(plain);

    Scenario upsets = plain;
    upsets.name = "heavy_upsets";
    upsets.faults.p_upset = 0.4;
    out.push_back(upsets);

    Scenario secded = upsets;
    secded.name = "secded_upsets";
    secded.config.link_protection = LinkProtection::SecdedCorrect;
    out.push_back(secded);

    Scenario skew = plain;
    skew.name = "clock_skew";
    skew.faults.sigma_synchr = 0.6; // exercises the round+2 ring bucket
    out.push_back(skew);

    Scenario crashes = upsets;
    crashes.name = "crashes_and_upsets";
    crashes.faults.p_tiles = 0.1;
    crashes.faults.p_links = 0.05;
    out.push_back(crashes);

    Scenario unicast = plain;
    unicast.name = "stop_spread_unicast";
    unicast.config.stop_spread_on_delivery = true;
    unicast.unicast_traffic = true;
    out.push_back(unicast);

    Scenario capped = plain;
    capped.name = "forward_capacity";
    capped.forward_cap = true;
    capped.unicast_traffic = true;
    out.push_back(capped);

    Scenario island = plain;
    island.name = "islands_with_skew";
    island.islands = true;
    island.faults.sigma_synchr = 0.4;
    out.push_back(island);

    Scenario app = plain;
    app.name = "pi_app_upsets";
    app.use_pi_app = true;
    app.faults.p_upset = 0.2;
    app.config.default_ttl = 30;
    out.push_back(app);

    return out;
}

struct ScenarioRun {
    NetworkMetrics metrics;
    /// Elapsed time, spread, trace counts (traced only), full metrics.
    std::string image;
};

ScenarioRun run_scenario(const Scenario& s, std::uint64_t seed, EngineSelect engine,
                         bool traced) {
    const bool pi = s.use_pi_app;
    GossipNetwork net(Topology::mesh(pi ? 5 : 4, pi ? 5 : 4), s.config, s.faults, seed,
                      engine);
    CountingSink counter;
    if (traced) net.set_trace_sink(&counter);
    if (pi) {
        apps::PiDeployment d;
        auto& master = apps::deploy_pi(net, d);
        net.protect(d.master_tile);
        net.run_until([&master] { return master.done(); }, 2000);
        net.drain();
    } else {
        net.attach(0, std::make_unique<BroadcastSource>());
        if (s.unicast_traffic) {
            net.attach(5, std::make_unique<ChattySource>(15));
            net.attach(15, std::make_unique<Sink>());
        }
        if (s.forward_cap) {
            net.set_forward_capacity(5, 2);
            net.set_forward_capacity(6, 1);
        }
        if (s.islands) {
            net.set_clock_scale(3, 2.0);
            net.set_clock_scale(12, 3.0);
        }
        for (int i = 0; i < 40; ++i) net.step();
        net.drain(200);
    }
    std::ostringstream os;
    os << "seed " << seed << '\n'
       << "elapsed " << std::hexfloat << net.elapsed_seconds() << std::defaultfloat << '\n';
    if (!pi) os << "spread " << net.tiles_knowing(MessageId{0, 0}) << '\n';
    if (traced) write_trace_counts(counter, os);
    write_metrics(net.metrics(), os);
    return ScenarioRun{net.metrics(), os.str()};
}

// --- Shape 2: the per-round spread curve -------------------------------------

/// The all-streams fault scenario: every injector stream active, so any
/// reordered draw shows up in the counters.
FaultScenario stress_scenario() {
    FaultScenario s;
    s.p_tiles = 0.08;
    s.p_links = 0.05;
    s.p_upset = 0.1;
    s.p_overflow = 0.05;
    s.sigma_synchr = 0.2;
    return s;
}

/// Tiles knowing the rumor, packets sent and quiescence after every one
/// of 80 rounds on a 6x6 mesh: the curve must match round by round, not
/// just at the end.
std::string spread_curve_image(EngineSelect engine, bool traced) {
    GossipConfig config;
    config.forward_p = 0.5;
    config.default_ttl = 30;
    GossipNetwork net(Topology::mesh(6, 6), config, stress_scenario(), 11, engine);
    CountingSink counter;
    if (traced) net.set_trace_sink(&counter);
    net.attach(0, std::make_unique<BroadcastSource>(1));
    const MessageId rumor{0, 0};
    std::ostringstream os;
    for (int round = 0; round < 80; ++round) {
        net.step();
        os << "round " << round << " knowing " << net.tiles_knowing(rumor) << " sent "
           << net.metrics().packets_sent << " quiescent " << net.quiescent() << '\n';
    }
    os << "elapsed " << std::hexfloat << net.elapsed_seconds() << std::defaultfloat << '\n';
    if (traced) write_trace_counts(counter, os);
    write_metrics(net.metrics(), os);
    return os.str();
}

// --- Shape 3: the gossip RunReport through the adapter -----------------------

TrafficTrace corner_trace() {
    TrafficTrace trace;
    TrafficPhase phase;
    phase.messages.push_back({0, 24, 256});
    phase.messages.push_back({4, 20, 256});
    phase.messages.push_back({20, 4, 256});
    phase.messages.push_back({24, 0, 256});
    trace.phases.push_back(phase);
    return trace;
}

/// A corner-to-corner trace on 5x5 through GossipAdapter with the
/// invariant auditor attached: RunReport scalars, the auditor's verdict
/// and the full metrics, for the stress scenario and a fault-free one.
std::string run_report_image(EngineSelect engine, bool traced) {
    const std::vector<std::pair<std::uint64_t, bool>> runs{
        {1, true}, {7, true}, {42, true}, {3, false}, {9, false}};
    std::ostringstream os;
    for (const auto& [seed, stressed] : runs) {
        GossipSpec spec;
        spec.topology = Topology::mesh(5, 5);
        spec.config.forward_p = 0.5;
        spec.config.default_ttl = 40;
        spec.protect = {0, 4, 20, 24};
        spec.drain = true;
        spec.engine = engine;
        GossipAdapter adapter(std::move(spec),
                              stressed ? stress_scenario() : FaultScenario::none(), seed);
        CountingSink counter;
        check::InvariantAuditor auditor;
        auditor.begin_run("test_engine_golden");
        if (traced) adapter.set_trace_sink(&counter);
        adapter.set_auditor(&auditor);
        const auto trace = corner_trace();
        const RunReport r = adapter.run(trace, 1000);
        auditor.check_report(r, BackendKind::Gossip, &trace, 1000);
        os << "seed " << seed << (stressed ? " stress" : " clean") << '\n'
           << "report " << r.completed << ' ' << r.rounds << ' ' << std::hexfloat
           << r.seconds << std::defaultfloat << ' ' << r.transmissions << ' ' << r.bits
           << ' ' << r.messages << ' ' << r.deliveries << ' ' << r.dropped << ' '
           << std::hexfloat << r.joules << std::defaultfloat << ' ' << r.seed << ' '
           << r.attempts << '\n'
           << "violations " << auditor.violation_count() << '\n';
        if (traced) write_trace_counts(counter, os);
        write_metrics(r.metrics, os);
    }
    return os.str();
}

// --- Golden comparison ------------------------------------------------------

/// Compare `image(engine, traced)` with tests/golden/engine/<name>.golden
/// at shards {1, 2, 8}, traced and untraced.  With SNOC_UPDATE_GOLDEN set
/// it instead writes the traced single-strip image and skips.
void check_golden(const std::string& name,
                  const std::function<std::string(EngineSelect, bool)>& image) {
    const std::string path = std::string(SNOC_GOLDEN_DIR) + "/engine/" + name + ".golden";
    if (std::getenv("SNOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << image(EngineSelect{}, true);
        GTEST_SKIP() << "golden updated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    const std::string traced_golden = golden.str();
    const std::string untraced_golden = strip_trace(traced_golden);
    for (const std::size_t shards : {1u, 2u, 8u}) {
        EngineSelect engine;
        engine.shards = shards;
        EXPECT_EQ(image(engine, true), traced_golden)
            << name << " traced, shards=" << shards;
        EXPECT_EQ(image(engine, false), untraced_golden)
            << name << " untraced, shards=" << shards;
    }
}

TEST(EngineGolden, ScenarioGridMatchesAtEveryShardCount) {
    for (const Scenario& s : scenarios()) {
        SCOPED_TRACE(s.name);
        check_golden(s.name, [&s](EngineSelect engine, bool traced) {
            std::string out;
            for (const std::uint64_t seed : {1ull, 7ull, 42ull})
                out += run_scenario(s, seed, engine, traced).image;
            return out;
        });
    }
}

TEST(EngineGolden, SpreadCurveMatchesRoundByRound) {
    check_golden("spread_curve", spread_curve_image);
}

TEST(EngineGolden, GossipRunReportMatches) {
    check_golden("gossip_run_report", run_report_image);
}

// The encode-once forward path shares one wire image between the port
// transmissions of a message; re-encoding per transmission (the
// reference_encode_path diagnostic knob) must change nothing.
TEST(EngineEquivalence, SharedWireMatchesReferenceEncodePath) {
    for (const Scenario& s : scenarios()) {
        Scenario reference = s;
        reference.config.reference_encode_path = true;
        for (const std::uint64_t seed : {1ull, 7ull, 42ull})
            EXPECT_EQ(run_scenario(reference, seed, EngineSelect{}, true).image,
                      run_scenario(s, seed, EngineSelect{}, true).image)
                << s.name << " seed=" << seed;
    }
}

TEST(EngineEquivalence, PacketsPerRoundEndsAtLastTransmittingRound) {
    // A run capped long after its rumor died keeps no tail of quiet
    // rounds: the series ends at the last round that carried a packet,
    // still sums to packets_sent, and any strip count stores the same one.
    constexpr std::size_t kCap = 400;
    std::vector<NetworkMetrics> runs;
    for (const std::size_t shards : {1u, 2u}) {
        GossipConfig config;
        config.forward_p = 0.5;
        config.default_ttl = 16;
        EngineSelect engine;
        engine.shards = shards;
        GossipNetwork net(Topology::mesh(4, 4), config, FaultScenario::none(), 3, engine);
        net.attach(0, std::make_unique<BroadcastSource>());
        for (std::size_t i = 0; i < kCap; ++i) net.step();
        runs.push_back(net.metrics());
    }
    for (const NetworkMetrics& m : runs) {
        EXPECT_EQ(m.rounds, kCap);
        const auto& per_round = m.packets_per_round;
        ASSERT_FALSE(per_round.empty());
        EXPECT_GT(per_round.back(), 0u);
        EXPECT_LT(per_round.size(), kCap / 4);
        std::size_t sum = 0;
        for (std::size_t n : per_round) sum += n;
        EXPECT_EQ(sum, m.packets_sent);
    }
    std::ostringstream a, b;
    write_metrics(runs[0], a);
    write_metrics(runs[1], b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(EngineEquivalence, ScenariosActuallyExerciseTheHotPaths) {
    // Guard against the goldens silently testing nothing: the grid must
    // produce traffic, upsets, skew deferrals and FEC repairs.
    std::size_t packets = 0, crc_drops = 0, skew = 0, fec = 0;
    for (const Scenario& s : scenarios()) {
        const auto m = run_scenario(s, 1, EngineSelect{}, false).metrics;
        packets += m.packets_sent;
        crc_drops += m.crc_drops;
        skew += m.skew_deferrals;
        fec += m.fec_corrected;
    }
    EXPECT_GT(packets, 1000u);
    EXPECT_GT(crc_drops, 0u);
    EXPECT_GT(skew, 0u);
    EXPECT_GT(fec, 0u);
}

} // namespace
} // namespace snoc
