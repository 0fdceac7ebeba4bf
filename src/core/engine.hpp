// The stochastic communication engine — the paper's primary contribution
// (Sec. 3.2, Fig. 3-4).  One GossipNetwork owns a topology, per-tile
// network logic (send buffer, input buffers, CRC filter, Bernoulli(p)
// output gates), the fault injector and the GALS clock model, and executes
// gossip rounds:
//
//   receive:  send_buffer U= { m received | CRC_OK(m) }   (dedup by id)
//   deliver:  m.destination == tile  ->  IP core
//   compute:  IP may inject new messages
//   forward:  every held m goes out on each live port w.p. p
//   age:      for all m: TTL -= 1;  drop TTL == 0
//
// Crashed tiles/links, data upsets, forced overflows and clock-skew
// deferrals are applied exactly where they would strike on silicon.
//
// A round touches only the tiles that can have work, in the spirit of
// Graphite's event-driven NoC scheduler:
//
//   * tiles with pending arrivals (the in-flight ring buckets packets by
//     arrival round — it is the round-bucketed event queue);
//   * tiles on the active list (live, non-empty send buffer: something
//     to age and something to forward);
//   * live tiles hosting IP cores (an IP may act in any round);
//   * per-tile clocks only when a draw is owed (sigma_synchr > 0) or a
//     clock-scale island exists; otherwise local time is analytic.
//
// A tile on none of the first three lists does nothing in any phase, so
// skipping it changes no result: the active list holds exactly the live
// tiles with non-empty send buffers (active_set_consistent, audited per
// round), every global RNG draw (overflow, upset, clock jitter) happens
// in one serial pass in ascending tile order, and per-tile streams only
// advance from work on that tile.  tests/test_engine_golden.cpp pins the
// outputs of every scenario shape against frozen goldens.
//
// Sharding: the mesh is split into `shards` contiguous ascending tile
// strips run on the shared ThreadPool (common/parallel.hpp).  Parallel
// phases only touch per-tile / per-shard state; everything global
// (injector draws, ring appends, metric vectors, trace emission) runs in
// short serial passes in canonical order — ascending shard order, which
// equals ascending tile order for ANY strip count.  Per-shard buffers
// therefore concatenate to the same sequence wherever the strip
// boundaries fall, which is why results are byte-identical at any
// --jobs value.  See DESIGN.md §12.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/ledger.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/gossip_config.hpp"
#include "core/ip_core.hpp"
#include "core/metrics.hpp"
#include "core/send_buffer.hpp"
#include "fault/injector.hpp"
#include "noc/topology.hpp"
#include "sim/round_clock.hpp"
#include "sim/trace.hpp"

namespace snoc {

class GossipNetwork {
public:
    /// `engine.shards` requests that many tile strips (clamped to
    /// [1, tiles]); results are byte-identical for any count.
    GossipNetwork(Topology topology, GossipConfig config, FaultScenario scenario,
                  std::uint64_t seed, EngineSelect engine = {});

    /// Map an IP core onto a tile.  Must be called before the first round.
    void attach(TileId tile, std::unique_ptr<IpCore> core);

    /// Tiles that must survive the initial crash roll (e.g. the unique
    /// master); call before the first round.
    void protect(TileId tile);

    /// Crash exactly `k` unprotected tiles instead of rolling p_tiles
    /// (the Fig. 4-4 x-axis is a defect count).  Call before round 0.
    void force_exact_tile_crashes(std::size_t k);

    /// Limit how many packet transmissions a tile may perform per round.
    /// Models serialised media in the Ch. 5 hybrid architectures: a
    /// bus-bridge tile that can push one packet per round behaves like a
    /// shared bus between sub-networks.  Default: unlimited.
    void set_forward_capacity(TileId tile, std::size_t packets_per_round);

    /// Gate which messages a tile may forward to which neighbour.  This is
    /// how the Ch. 5 central router / bus bridge confines gossip to the
    /// destination's cluster: plain mesh tiles have no filter, gateway and
    /// hub tiles forward a rumor off-cluster only when its destination
    /// lives there.  Returning false suppresses that port for that message.
    using RouteFilter = std::function<bool(const Message&, TileId next_hop)>;
    void set_route_filter(TileId tile, RouteFilter filter);

    /// Voltage/frequency islands (Ch. 5): a tile with clock scale s >= 1
    /// runs its rounds s times slower than the base T_R — it participates
    /// only in the engine rounds its local clock has caught up with, so a
    /// scale-2 tile acts every other round, holds its rumors twice as long
    /// in wall-clock, and receives arrivals with a deferral.  Scales below
    /// 1 clamp to 1 (the engine round is the fastest quantum).  Call
    /// before round 0.
    void set_clock_scale(TileId tile, double scale);

    /// Attach a flight recorder (see sim/trace.hpp).  The sink must
    /// outlive the network; nullptr detaches.  Tracing never changes
    /// behaviour — sinks are write-only observers.
    void set_trace_sink(TraceSink* sink) { trace_ = sink; }

    struct RunResult {
        bool completed{false};    ///< predicate became true before the cap.
        Round rounds{0};          ///< rounds executed.
        double elapsed_seconds{0.0};
    };

    /// Run until `done()` (checked after every round) or `max_rounds`.
    RunResult run_until(const std::function<bool()>& done, Round max_rounds);

    /// Execute a single gossip round.
    void step();

    /// --- Observers --------------------------------------------------------
    const Topology& topology() const { return topology_; }
    const GossipConfig& config() const { return config_; }
    const NetworkMetrics& metrics() const { return metrics_; }
    const CrashState& crashes();
    Round round() const { return round_; }
    /// Local time: analytic accumulation of t_r per round when no clock
    /// draws or islands exist, the per-tile clock vector otherwise.
    double elapsed_seconds() const;
    /// True iff the active lists hold exactly the live tiles with
    /// non-empty send buffers, each once, ascending within its own strip
    /// (the invariant that makes skipping idle tiles sound).  O(N); the
    /// InvariantAuditor calls it per audited round.
    bool active_set_consistent() const;

    bool tile_alive(TileId t);
    std::size_t live_link_count();

    /// True when no rumor is alive anywhere: all send buffers are empty
    /// and nothing is in flight.  Energy measurements should run to
    /// quiescence — transmissions keep burning energy until every TTL
    /// expires, even after the application has finished.
    bool quiescent() const;

    /// Step until quiescent (or the safety cap); used by the energy
    /// benches to account for the full broadcast lifetime.
    void drain(Round max_extra_rounds = 1000);
    /// How many live tiles currently know (hold or held) message `id` —
    /// the spread curve of Fig. 3-1.  The first call counts from every
    /// live send buffer; from then on each successful insert adds one
    /// knower (knows() is monotone and crashes only roll at start), so
    /// a per-round spread predicate costs O(1), not O(N).
    std::size_t tiles_knowing(const MessageId& id);
    const SendBuffer& send_buffer(TileId t) const;

    /// Packets enqueued on links but not yet received (all ring buckets).
    std::size_t in_flight_packets() const;

    /// Snapshot the conservation ledger (check/ledger.hpp) from live
    /// engine state.  Exact at any round boundary; the InvariantAuditor
    /// verifies its two balance laws per round and at end of run.
    check::ConservationLedger ledger() const;

private:
    /// One packet in flight.  All clean transmissions of a message in a
    /// round share a single encoded wire image (encode-once forward
    /// path); an upset transmission owns a corrupted copy of the bytes.
    struct Arrival {
        std::shared_ptr<const std::vector<std::byte>> wire;
        bool corrupted{false};
    };

    struct Tile {
        SendBuffer send_buffer;
        std::uint32_t next_sequence{0};
        std::size_t inbox_backlog{0}; ///< arrivals queued, for capacity drops.
        std::unique_ptr<IpCore> core;
        explicit Tile(std::size_t cap) : send_buffer(cap) {}
    };

    class Context; // TileContext implementation.

    /// Effect sink for one delivery / compute call: where scalar
    /// counters, trace events and bookkeeping side-effects land.  Each
    /// shard has its own, so parallel shards never write shared state;
    /// deltas are merged serially, in ascending shard order, at phase end.
    struct StepSink {
        NetworkMetrics* metrics{nullptr};           ///< scalar counter delta.
        std::vector<TraceEvent>* trace_buffer{nullptr}; ///< shard's events.
        bool tracing{false};                        ///< a trace sink is attached.
        /// stop-spread ids, merged into delivered_unicasts_.
        std::vector<MessageId>* unicasts{nullptr};
        /// Ids successfully inserted into send buffers, for knower
        /// counting; nullptr until tiles_knowing is first asked.
        std::vector<MessageId>* inserted{nullptr};
        /// Tiles whose buffer went empty -> non-empty (active-set upkeep).
        std::vector<TileId>* activated{nullptr};
        std::size_t evictions{0}; ///< insertions that evicted a victim.
    };

    /// One pending delivery that survived the serial receive pass.
    struct Work {
        TileId dest{0};
        std::uint32_t seq{0}; ///< arrival order within the round's bucket.
        Arrival arrival;
    };
    /// One planned transmission out of the parallel forward pass; the
    /// serial pass replays these through enqueue_transmission in
    /// canonical order, so upset draws, skew checks, ring appends and
    /// metric vectors see one sequence at any shard count.
    struct Plan {
        TileId from{0};
        TileId to{0};
        LinkId link{0};
        MessageId id{kNoTile, 0};
        std::shared_ptr<const std::vector<std::byte>> wire;
    };
    struct Shard {
        /// Live tiles with non-empty send buffers, ascending, unique.
        std::vector<TileId> active;
        /// Tiles whose buffer went empty -> non-empty this phase; merged
        /// into `active` at the next sync point.
        std::vector<TileId> newly_active;
        /// Live tiles hosting an IP core (static after start).
        std::vector<TileId> cores;
        // --- per-round scratch (capacity persists across rounds) -------
        std::vector<Work> arrivals;
        std::vector<Plan> plans;
        std::vector<TraceEvent> events;
        std::vector<MessageId> unicasts;
        std::vector<MessageId> inserted;
        NetworkMetrics delta; ///< scalar counters only; vectors stay empty.
        std::size_t evictions{0};
    };

    /// Roll crashes, run every live IP's on_start and seed the active
    /// lists, core lists and clock regime; idempotent.
    void ensure_started();
    bool tile_active_this_round(TileId t) const;
    void receive_phase();
    void age_phase();
    void compute_phase();
    void forward_phase();
    void advance_clocks();

    std::size_t shard_of(TileId t) const;
    /// Run fn(shard) for every shard, fanned out over the shared
    /// ThreadPool when shards > 1.  The caller participates (and can
    /// finish every shard alone if the pool is saturated by outer trial
    /// parallelism), so nesting inside run_trials cannot deadlock.
    void run_sharded(const std::function<void(std::size_t)>& fn);
    /// A sink wired to `sh`'s buffers: parallel phases write only here.
    StepSink shard_sink(Shard& sh);
    /// Canonical serial merge order over shards.  Ascending strips mean
    /// ascending tiles for any shard count; every serial pass that folds
    /// per-shard results into global state iterates via this helper.
    std::size_t shard_merge_index(std::size_t s) const;
    /// Fold one shard's scalar counter delta into metrics_.
    void merge_delta(NetworkMetrics& delta);
    /// Flush buffered trace events / unicasts / knower increments /
    /// eviction counts of every shard, in canonical order.
    void merge_shard_effects();
    void merge_activations();
    void deliver_and_insert(TileId tile, Message message, StepSink& sink);
    /// Run `tile`'s IP core hook with a Context wired to `sink`.
    void core_round(TileId tile, StepSink& sink);
    /// Serialise + CRC (+ optional FEC) a message into a shareable wire image.
    std::shared_ptr<const std::vector<std::byte>> encode_message(const Message& m) const;
    void enqueue_transmission(TileId from, TileId to, LinkId link, MessageId id,
                              std::shared_ptr<const std::vector<std::byte>> wire);
    void trace(TraceEventKind kind, TileId tile, TileId peer = kNoTile,
               MessageId message = MessageId{kNoTile, 0});
    void sink_trace(StepSink& sink, TraceEventKind kind, TileId tile,
                    TileId peer = kNoTile, MessageId message = MessageId{kNoTile, 0});

    Topology topology_;
    GossipConfig config_;
    RngPool pool_;
    FaultInjector injector_;
    GalsClocks clocks_;

    std::vector<Tile> tiles_;
    std::vector<RngStream> forward_rng_;
    std::vector<std::optional<RngStream>> app_rng_; ///< seeded on first use: most IPs draw none
    std::vector<std::size_t> forward_capacity_;
    std::vector<RouteFilter> route_filter_;
    std::vector<double> clock_scale_;
    std::vector<double> next_action_round_;
    std::vector<TileId> protected_tiles_;
    CrashState crash_state_;
    bool started_{false};
    std::optional<std::size_t> forced_exact_crashes_;

    Round round_{0};
    // Rumors whose destination already has them (only tracked when
    // config_.stop_spread_on_delivery is set).
    std::unordered_set<MessageId> delivered_unicasts_;
    // Arrivals bucketed by arrival round, per destination tile.  A packet
    // sent in round r lands at r+1, or r+2 after a skew deferral, and a
    // slow-clock receive defers at most one round at a time — so a small
    // ring of reusable buckets replaces the old unordered_map<Round, ...>
    // (no hashing, no rehash, vector capacity survives across rounds).
    static constexpr std::size_t kInFlightRing = 4;
    std::array<std::vector<std::pair<TileId, Arrival>>, kInFlightRing> in_flight_;
    std::vector<std::pair<TileId, Arrival>> arrivals_scratch_;
    NetworkMetrics metrics_;
    std::size_t packets_this_round_{0};
    TraceSink* trace_{nullptr};

    std::vector<Shard> shards_;
    /// sigma_synchr > 0 (per-tile duration draws owed every round) or a
    /// clock-scale island exists (skew between domains becomes non-zero):
    /// advance every tile clock each round.  Otherwise local clocks are
    /// uniform and analytic: skew == 0, elapsed accumulates t_r per round.
    bool dense_clocks_{false};
    double elapsed_accum_{0.0};
    /// Live tiles that ever held a given rumor; empty until tiles_knowing
    /// is first asked (most runs never ask).
    std::optional<std::unordered_map<MessageId, std::size_t>> knowers_;
    /// Send-buffer evictions observed through sinks vs. how many have
    /// been folded into metrics_.overflow_drops (at each age phase, so
    /// the metric trails the buffers by the part of a round after ageing).
    std::size_t evictions_seen_{0};
    std::size_t evictions_folded_{0};
    /// Tiles whose inbox_backlog the current receive pass raised.
    std::vector<TileId> backlog_touched_;
};

} // namespace snoc
