// Sharded single-trial determinism: one trial parallelised across
// intra-trial tile strips is byte-identical to the same trial on one
// strip, for any strip count — RunReport, full metrics, trace-event
// stream (JSONL bytes) and audit outcome all included.
// test_engine_golden pins the network-level outputs against frozen
// goldens; this suite proves shard-count invariance end to end through
// the adapter / telemetry / auditor stack, and that every registered
// Interconnect backend runs deterministically through make_interconnect.
//
// engine-equivalence-backends: gossip bus xy wormhole deflection storeforward cutthrough adaptive
// (snoc_lint cross-checks that marker against the BackendKind enum:
// adding a backend without extending
// AllBackendsRunDeterministicallyThroughFactory below — and this list —
// is a lint error.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/engine.hpp"
#include "sim/backends.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace snoc {
namespace {

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

/// The full-fault scenario: every injector stream active, so any
/// shard-dependent draw reordering shows up in the counters.
FaultScenario stress_scenario() {
    FaultScenario s;
    s.p_tiles = 0.08;
    s.p_links = 0.05;
    s.p_upset = 0.1;
    s.p_overflow = 0.05;
    s.sigma_synchr = 0.2;
    return s;
}

/// Every observable of one adapter-driven trial, flattened to bytes so
/// "byte-identical" is literal.
struct TrialImage {
    std::string report;     ///< RunReport scalars + full NetworkMetrics JSON.
    std::string jsonl;      ///< write_jsonl over the attached Telemetry.
    std::size_t violations; ///< auditor verdict.
};

std::string serialize_report(const RunReport& r) {
    std::ostringstream os;
    os << r.completed << ' ' << r.rounds << ' '
       << std::hexfloat << r.seconds << std::defaultfloat << ' '
       << r.transmissions << ' ' << r.bits << ' ' << r.messages << ' '
       << r.deliveries << ' ' << r.dropped << ' '
       << std::hexfloat << r.joules << std::defaultfloat << ' '
       << r.seed << ' ' << r.attempts << '\n';
    write_metrics_json(r.metrics, os);
    return os.str();
}

TrialImage run_trial(std::size_t shards, std::uint64_t seed,
                     const FaultScenario& scenario) {
    GossipSpec spec;
    spec.topology = Topology::mesh(5, 5);
    spec.config.forward_p = 0.5;
    spec.config.default_ttl = 40;
    spec.protect = {0, 4, 20, 24};
    spec.drain = true;
    spec.engine.shards = shards;
    GossipAdapter adapter(std::move(spec), scenario, seed);

    Telemetry telemetry;
    check::InvariantAuditor auditor;
    auditor.begin_run("test_sharded_determinism");
    adapter.set_trace_sink(&telemetry);
    adapter.set_auditor(&auditor);

    const auto trace = corner_trace();
    const RunReport report = adapter.run(trace, 1000);
    auditor.check_report(report, BackendKind::Gossip, &trace, 1000);

    TrialImage image;
    image.report = serialize_report(report);
    std::ostringstream jsonl;
    write_jsonl(telemetry, jsonl);
    image.jsonl = jsonl.str();
    image.violations = auditor.violation_count();
    return image;
}

/// --jobs invariance: shards in {1, 2, 8} produce the same bytes.
TEST(ShardedDeterminism, ReportAndTraceBytesInvariantAcrossShards) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
        const TrialImage base = run_trial(1, seed, stress_scenario());
        EXPECT_FALSE(base.jsonl.empty());
        for (const std::size_t shards : {2u, 8u}) {
            const TrialImage img = run_trial(shards, seed, stress_scenario());
            EXPECT_EQ(img.report, base.report) << "shards=" << shards << " seed=" << seed;
            EXPECT_EQ(img.jsonl, base.jsonl) << "shards=" << shards << " seed=" << seed;
        }
    }
}

/// The auditor (conservation ledger, occupancy, TTL monotonicity, the
/// active-set invariant) stays clean under sharding, on the all-streams
/// fault scenario.
TEST(ShardedDeterminism, AuditorCleanAtEveryShardCount) {
    for (const std::size_t shards : {1u, 2u, 8u}) {
        const TrialImage img = run_trial(shards, 7, stress_scenario());
        EXPECT_EQ(img.violations, 0u) << "shards=" << shards;
    }
}

/// Every BackendKind constructs and completes deterministically through
/// the same make_interconnect path the runner uses: two instances built
/// from one seed report identical bytes.  Keep the loop and the
/// file-header marker list in sync when adding a BackendKind — snoc_lint
/// enforces the marker.
TEST(ShardedDeterminism, AllBackendsRunDeterministicallyThroughFactory) {
    const auto trace = corner_trace();
    for (const BackendKind kind : kBackendKinds) {
        const auto a = make_interconnect(kind, FaultScenario::none(), 5);
        const auto b = make_interconnect(kind, FaultScenario::none(), 5);
        ASSERT_NE(a, nullptr) << to_string(kind);
        ASSERT_EQ(a->kind(), kind);
        const RunReport ra = a->run(trace, 2000);
        const RunReport rb = b->run(trace, 2000);
        EXPECT_EQ(serialize_report(ra), serialize_report(rb)) << to_string(kind);
        EXPECT_TRUE(ra.completed) << to_string(kind);
    }
}

} // namespace
} // namespace snoc
