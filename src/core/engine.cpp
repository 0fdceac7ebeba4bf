#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <optional>

#include "common/annotations.hpp"
#include "common/expect.hpp"
#include "common/parallel.hpp"
#include "noc/fec.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/prof.hpp"

namespace snoc {

// ---------------------------------------------------------------------------
// TileContext implementation handed to IP cores.  All side effects of the
// IP's calls (counters, traces, active-set bookkeeping) flow through the
// calling shard's StepSink, so parallel shards never write shared state.
class GossipNetwork::Context final : public TileContext {
public:
    Context(GossipNetwork& net, TileId tile, StepSink& sink)
        : net_(net), tile_(tile), sink_(sink) {}

    TileId tile() const override { return tile_; }
    Round round() const override { return net_.round_; }

    void send(TileId destination, std::uint32_t tag, std::vector<std::byte> payload,
              std::uint16_t ttl_override) override {
        auto& t = net_.tiles_[tile_];
        send_impl(MessageId{tile_, t.next_sequence++}, destination, tag,
                  std::move(payload), ttl_override);
    }

    void send_with_id(MessageId id, TileId destination, std::uint32_t tag,
                      std::vector<std::byte> payload,
                      std::uint16_t ttl_override) override {
        send_impl(id, destination, tag, std::move(payload), ttl_override);
    }

    RngStream& rng() override {
        auto& stream = net_.app_rng_[tile_];
        if (!stream) stream.emplace(net_.pool_.stream("app", tile_));
        return *stream;
    }

    std::uint16_t default_ttl() const override { return net_.config_.default_ttl; }

private:
    void send_impl(MessageId id, TileId destination, std::uint32_t tag,
                   std::vector<std::byte> payload, std::uint16_t ttl_override) {
        auto& t = net_.tiles_[tile_];
        Message m;
        m.id = id;
        m.source = tile_;
        m.destination = destination;
        m.tag = tag;
        m.ttl = ttl_override != 0 ? ttl_override : net_.config_.default_ttl;
        m.payload = std::move(payload);
        MessageId evicted{kNoTile, 0};
        const bool was_empty = t.send_buffer.empty();
        if (t.send_buffer.insert(std::move(m), &evicted)) {
            ++sink_.metrics->messages_created;
            net_.sink_trace(sink_, TraceEventKind::MessageCreated, tile_, kNoTile, id);
            if (sink_.inserted) sink_.inserted->push_back(id);
            if (was_empty) sink_.activated->push_back(tile_);
            if (evicted.origin != kNoTile) {
                ++sink_.evictions;
                net_.sink_trace(sink_, TraceEventKind::BufferEvicted, tile_, kNoTile,
                                evicted);
            }
        }
    }

    GossipNetwork& net_;
    TileId tile_;
    StepSink& sink_;
};

// ---------------------------------------------------------------------------

GossipNetwork::GossipNetwork(Topology topology, GossipConfig config,
                             FaultScenario scenario, std::uint64_t seed,
                             EngineSelect engine)
    : topology_(std::move(topology)),
      config_(config),
      pool_(seed),
      injector_(scenario, pool_),
      clocks_(topology_.node_count(), config.timing.round_seconds()) {
    config_.validate();
    const std::size_t n = topology_.node_count();
    tiles_.reserve(n);
    forward_rng_.reserve(n);
    for (TileId t = 0; t < n; ++t) {
        tiles_.emplace_back(config_.send_buffer_capacity);
        forward_rng_.push_back(pool_.stream("gossip/forward", t));
    }
    app_rng_.resize(n);
    forward_capacity_.assign(n, static_cast<std::size_t>(-1));
    route_filter_.resize(n);
    clock_scale_.assign(n, 1.0);
    next_action_round_.assign(n, 0.0);
    metrics_.bits_sent_by_tile.assign(n, 0);
    metrics_.packets_by_link.assign(topology_.link_count(), 0);
    crash_state_.dead_tiles.assign(n, false);
    crash_state_.dead_links.assign(topology_.link_count(), false);
    shards_.resize(std::clamp<std::size_t>(engine.shards, 1, std::max<std::size_t>(n, 1)));
}

double GossipNetwork::elapsed_seconds() const {
    return dense_clocks_ ? clocks_.elapsed() : elapsed_accum_;
}

void GossipNetwork::sink_trace(StepSink& sink, TraceEventKind kind, TileId tile,
                               TileId peer, MessageId message) {
    if (!sink.tracing) return;
    TraceEvent event;
    event.round = round_;
    event.kind = kind;
    event.tile = tile;
    event.peer = peer;
    event.message = message;
    sink.trace_buffer->push_back(event);
}

void GossipNetwork::set_forward_capacity(TileId tile, std::size_t packets_per_round) {
    SNOC_EXPECT(tile < tiles_.size());
    SNOC_EXPECT(packets_per_round > 0);
    forward_capacity_[tile] = packets_per_round;
}

void GossipNetwork::set_route_filter(TileId tile, RouteFilter filter) {
    SNOC_EXPECT(tile < tiles_.size());
    route_filter_[tile] = std::move(filter);
}

void GossipNetwork::set_clock_scale(TileId tile, double scale) {
    SNOC_EXPECT(!started_);
    SNOC_EXPECT(tile < tiles_.size());
    SNOC_EXPECT(scale > 0.0);
    clock_scale_[tile] = std::max(scale, 1.0);
}


void GossipNetwork::trace(TraceEventKind kind, TileId tile, TileId peer,
                          MessageId message) {
    if (!trace_) return;
    TraceEvent event;
    event.round = round_;
    event.kind = kind;
    event.tile = tile;
    event.peer = peer;
    event.message = message;
    trace_->record(event);
}

bool GossipNetwork::tile_active_this_round(TileId t) const {
    // A scale-s tile acts once every s engine rounds (s need not be an
    // integer: scale 1.5 acts in 2 of every 3 rounds).  Clock jitter
    // (sigma_synchr) is orthogonal and never gates activity.
    if (clock_scale_[t] <= 1.0) return true;
    return static_cast<double>(round_) + 1e-9 >= next_action_round_[t];
}

void GossipNetwork::attach(TileId tile, std::unique_ptr<IpCore> core) {
    SNOC_EXPECT(!started_);
    SNOC_EXPECT(tile < tiles_.size());
    SNOC_EXPECT(core != nullptr);
    tiles_[tile].core = std::move(core);
}

void GossipNetwork::protect(TileId tile) {
    SNOC_EXPECT(!started_);
    SNOC_EXPECT(tile < tiles_.size());
    protected_tiles_.push_back(tile);
}

void GossipNetwork::force_exact_tile_crashes(std::size_t k) {
    SNOC_EXPECT(!started_);
    forced_exact_crashes_ = k;
}

void GossipNetwork::ensure_started() {
    if (started_) return;
    started_ = true;
    crash_state_ = forced_exact_crashes_
                       ? injector_.roll_exact_tile_crashes(topology_, *forced_exact_crashes_,
                                                           protected_tiles_)
                       : injector_.roll_crashes(topology_, protected_tiles_);
    for (TileId t = 0; t < tiles_.size(); ++t)
        if (!crash_state_.dead_tiles[t] && tiles_[t].core)
            shards_[shard_of(t)].cores.push_back(t);
    // on_start effects flow through the shard sinks like any compute
    // phase (serially: it runs once), so its sends seed the active lists.
    for (Shard& sh : shards_) {
        StepSink sink = shard_sink(sh);
        for (const TileId t : sh.cores) {
            Context ctx(*this, t, sink);
            tiles_[t].core->on_start(ctx);
        }
        sh.evictions += sink.evictions;
    }
    merge_shard_effects();
    merge_activations();
    bool scaled = false;
    for (double s : clock_scale_)
        if (s > 1.0) scaled = true;
    dense_clocks_ = injector_.scenario().sigma_synchr > 0.0 || scaled;
    elapsed_accum_ = clocks_.elapsed();
}

GossipNetwork::RunResult GossipNetwork::run_until(const std::function<bool()>& done,
                                                  Round max_rounds) {
    ensure_started();
    RunResult result;
    if (done()) { // already satisfied (e.g. empty workload)
        result.completed = true;
        result.rounds = round_;
        result.elapsed_seconds = elapsed_seconds();
        return result;
    }
    while (round_ < max_rounds) {
        step();
        if (done()) {
            result.completed = true;
            break;
        }
    }
    result.rounds = round_;
    result.elapsed_seconds = elapsed_seconds();
    return result;
}

void GossipNetwork::step() {
    ensure_started();
    packets_this_round_ = 0;
    // Fig. 3-4 phase order: receive (CRC filter + dedup) -> TTL decrement
    // and garbage collection -> forward.  The IP's turn (compute) sits
    // after ageing so freshly created messages are not aged in their own
    // creation round.  A copy therefore carries a strictly smaller TTL at
    // every hop and every rumor dies out deterministically.
    {
        SNOC_PROF("engine/receive");
        receive_phase();
    }
    {
        SNOC_PROF("engine/age");
        age_phase();
    }
    {
        SNOC_PROF("engine/compute");
        compute_phase();
    }
    {
        SNOC_PROF("engine/forward");
        forward_phase();
    }
    // Without jitter draws or clock-scale islands every live clock
    // advances by exactly t_r and skew stays zero, so local time is one
    // accumulation (added, not multiplied: the same doubles as advancing
    // every tile clock).
    if (dense_clocks_)
        advance_clocks();
    else
        elapsed_accum_ += clocks_.t_r();
    metrics_.add_round_packets(round_, packets_this_round_);
    ++round_;
    metrics_.rounds = round_;
    MetricsRegistry::global().inc(MetricId::EngineRoundsTotal);
    // A level-2 build re-verifies the conservation laws after every round,
    // even without an attached InvariantAuditor (compiled out otherwise).
    SNOC_CHECK(2, ledger().balanced());
}

// ---------------------------------------------------------------------------
// Shards.

std::size_t GossipNetwork::shard_of(TileId t) const {
    // Contiguous ascending strips: shard s owns { t : floor(t*S/n) == s }.
    return static_cast<std::size_t>(t) * shards_.size() / tiles_.size();
}

std::size_t GossipNetwork::shard_merge_index(std::size_t s) const {
    return s; // canonical merge order: ascending strips. [mutation-point:shard-order]
}

// ---------------------------------------------------------------------------
// Shard fan-out.  run_trials() is unsuitable here: its completion barrier
// waits for every *helper job* to execute, and an engine sharding inside a
// trial that is itself running on a pool worker could then deadlock (all
// workers blocked in barriers, helper jobs stuck behind them in the
// queue).  This batch instead counts *shards*: the caller participates,
// can finish every shard alone if the pool is saturated, and late-waking
// helpers find the counter exhausted and exit without running anything.
namespace {
struct ShardBatch {
    ShardBatch(std::function<void(std::size_t)> f, std::size_t n)
        : fn(std::move(f)), total(n) {}

    const std::function<void(std::size_t)> fn; ///< immutable after construction.
    const std::size_t total;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    Mutex mutex;
    CondVar cv;
    std::exception_ptr error SNOC_GUARDED_BY(mutex);

    void work() {
        for (;;) {
            const std::size_t s =
                next.fetch_add(1, std::memory_order_relaxed); // relaxed[claim-counter]
            if (s >= total) return;
            try {
                fn(s);
            } catch (...) {
                LockGuard lock(mutex);
                if (!error) error = std::current_exception();
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
                LockGuard lock(mutex);
                cv.notify_all();
            }
        }
    }
};
} // namespace

void GossipNetwork::run_sharded(const std::function<void(std::size_t)>& fn) {
    const std::size_t total = shards_.size();
    if (total == 1) {
        fn(0);
        return;
    }
    auto batch = std::make_shared<ShardBatch>(fn, total);
    const std::size_t helpers = std::min(total - 1, ThreadPool::shared().size());
    for (std::size_t h = 0; h < helpers; ++h)
        ThreadPool::shared().submit([batch] { batch->work(); });
    batch->work();
    {
        UniqueLock lock(batch->mutex);
        while (batch->done.load(std::memory_order_acquire) != batch->total)
            batch->cv.wait(lock);
    }
    // All error writes happen strictly before the final `done` increment,
    // so this post-barrier read needs the lock only to satisfy the
    // guarded_by contract (it is uncontended by construction).
    std::exception_ptr error;
    {
        LockGuard lock(batch->mutex);
        error = batch->error;
    }
    if (error) std::rethrow_exception(error);
}

GossipNetwork::StepSink GossipNetwork::shard_sink(Shard& sh) {
    StepSink sink;
    sink.metrics = &sh.delta;
    sink.trace_buffer = &sh.events;
    sink.tracing = trace_ != nullptr;
    sink.unicasts = &sh.unicasts;
    sink.inserted = knowers_ ? &sh.inserted : nullptr;
    sink.activated = &sh.newly_active;
    return sink;
}

void GossipNetwork::merge_delta(NetworkMetrics& delta) {
    // delta.rounds stays 0: only the serial round close counts rounds.
#define SNOC_NETWORK_COUNTER_MERGE(name, doc) metrics_.name += delta.name;
    SNOC_NETWORK_COUNTER_LIST(SNOC_NETWORK_COUNTER_MERGE)
#undef SNOC_NETWORK_COUNTER_MERGE
    delta = NetworkMetrics{};
}

void GossipNetwork::merge_shard_effects() {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& sh = shards_[shard_merge_index(i)];
        merge_delta(sh.delta);
        if (trace_)
            for (const TraceEvent& ev : sh.events) trace_->record(ev);
        sh.events.clear();
        for (const MessageId& id : sh.unicasts) delivered_unicasts_.insert(id);
        sh.unicasts.clear();
        for (const MessageId& id : sh.inserted) ++(*knowers_)[id];
        sh.inserted.clear();
        evictions_seen_ += sh.evictions;
        sh.evictions = 0;
    }
}

void GossipNetwork::merge_activations() {
    for (Shard& sh : shards_) {
        if (sh.newly_active.empty()) continue;
        // An empty -> non-empty transition means the tile was not on the
        // list, so sorting the few newcomers and merging in place keeps
        // `active` sorted and unique.  (Untraced receive passes deliver
        // in bucket order, so newcomers need not arrive ascending.)
        std::sort(sh.newly_active.begin(), sh.newly_active.end());
        const auto middle = static_cast<std::ptrdiff_t>(sh.active.size());
        sh.active.insert(sh.active.end(), sh.newly_active.begin(),
                         sh.newly_active.end());
        std::inplace_merge(sh.active.begin(), sh.active.begin() + middle,
                           sh.active.end());
        sh.newly_active.clear();
    }
}

// ---------------------------------------------------------------------------
// Phases.  Each runs a serial pass for everything that draws from a
// global stream or touches cross-shard state, and fans the per-tile work
// out over the shards.

void GossipNetwork::receive_phase() {
    auto& bucket = in_flight_[round_ % kInFlightRing];
    if (bucket.empty()) return;
    // Detach the bucket before processing: slow-clock deferrals re-enter
    // the ring at the next round's slot, which may alias this one's
    // storage once the ring wraps.  The swap recycles both vectors'
    // capacity across rounds.
    arrivals_scratch_.clear();
    std::swap(arrivals_scratch_, bucket);
    backlog_touched_.clear();
    // Serial pass 1, in bucket order: everything that consumes the global
    // overflow stream or touches cross-shard structures (the ring, the
    // backlog counters) — crash drops, slow-clock deferrals, forced and
    // port-capacity overflows.  Survivors are routed to their owning
    // shard tagged with their bucket position.
    std::uint32_t seq = 0;
    for (auto& [dest, arrival] : arrivals_scratch_) {
        ++seq;
        if (crash_state_.dead_tiles[dest]) { // delivered into silence
            ++metrics_.crash_drops;
            trace(TraceEventKind::CrashDrop, dest);
            continue;
        }
        if (!tile_active_this_round(dest)) {
            // The destination's slower clock domain has not reached this
            // round yet; the packet waits in the port buffer.
            in_flight_[(round_ + 1) % kInFlightRing].emplace_back(dest, std::move(arrival));
            continue;
        }
        auto& tile = tiles_[dest];
        // Forced overflow (p_overflow of Ch. 2) strikes before the CRC check:
        // the packet never makes it out of the port buffer.
        if (injector_.overflow_drop()) {
            ++metrics_.overflow_drops;
            ++metrics_.port_overflow_drops;
            trace(TraceEventKind::OverflowDrop, dest);
            continue;
        }
        // Finite input buffering: a tile can accept at most
        // in_buffer_capacity packets per round across its ports.
        if (tile.inbox_backlog >= config_.in_buffer_capacity) {
            ++metrics_.overflow_drops;
            ++metrics_.port_overflow_drops;
            trace(TraceEventKind::OverflowDrop, dest);
            continue;
        }
        ++tile.inbox_backlog;
        backlog_touched_.push_back(dest);
        shards_[shard_of(dest)].arrivals.push_back(Work{dest, seq, std::move(arrival)});
    }
    // Parallel pass 2: decode (FEC strip + CRC — the expensive part) and
    // deliver.  Each tile sees its own arrivals in bucket order either
    // way.  Deliveries to different tiles commute except in the order
    // their trace events are buffered, so only a traced run sorts by
    // (destination, bucket position), which makes the concatenated event
    // stream independent of the shard count.
    const bool tracing = trace_ != nullptr;
    run_sharded([this, tracing](std::size_t s) {
        Shard& sh = shards_[s];
        if (tracing)
            std::sort(sh.arrivals.begin(), sh.arrivals.end(),
                      [](const Work& a, const Work& b) {
                          return a.dest != b.dest ? a.dest < b.dest : a.seq < b.seq;
                      });
        StepSink sink = shard_sink(sh);
        for (Work& w : sh.arrivals) {
            std::optional<Message> decoded;
            bool corrected_this_packet = false;
            if (config_.link_protection == LinkProtection::SecdedCorrect) {
                // Strip the SECDED layer first; single-bit upsets per word
                // are repaired here, before the CRC ever sees them.
                auto recovered = fec::recover(*w.arrival.wire);
                if (!recovered.ok) {
                    ++sink.metrics->fec_uncorrectable;
                    sink_trace(sink, TraceEventKind::FecUncorrectable, w.dest);
                    continue;
                }
                sink.metrics->fec_corrected += recovered.corrected_words;
                corrected_this_packet = recovered.corrected_words > 0;
                decoded = Packet::decode_wire(recovered.payload);
            } else {
                decoded = Packet::decode_wire(*w.arrival.wire);
            }
            if (!decoded) {
                ++sink.metrics->crc_drops; // scrambled packet, CRC caught it
                sink_trace(sink, TraceEventKind::CrcDrop, w.dest);
                continue;
            }
            if (w.arrival.corrupted && !corrected_this_packet)
                ++sink.metrics->upsets_undetected;
            deliver_and_insert(w.dest, std::move(*decoded), sink);
        }
        sh.arrivals.clear();
        sh.evictions += sink.evictions;
    });
    merge_shard_effects();
    merge_activations();
    for (const TileId t : backlog_touched_) tiles_[t].inbox_backlog = 0;
}

void GossipNetwork::deliver_and_insert(TileId tile_id, Message message,
                                       StepSink& sink) {
    SNOC_PROF("engine/deliver");
    auto& tile = tiles_[tile_id];
    if (tile.send_buffer.knows(message.id)) {
        ++sink.metrics->duplicates_ignored;
        sink_trace(sink, TraceEventKind::DuplicateIgnored, tile_id, kNoTile,
                   message.id);
        return;
    }
    const bool for_me =
        message.destination == tile_id || message.destination == kBroadcast;
    if (for_me && tile.core) {
        Context ctx(*this, tile_id, sink);
        tile.core->on_message(message, ctx);
        ++sink.metrics->deliveries;
        sink_trace(sink, TraceEventKind::Delivered, tile_id, kNoTile, message.id);
    }
    if (config_.stop_spread_on_delivery && message.destination == tile_id) {
        if (sink.unicasts)
            sink.unicasts->push_back(message.id);
        else
            delivered_unicasts_.insert(message.id);
    }
    // The tile keeps relaying even when it is the destination: the rumor
    // lives until its TTL expires, which is what gives later tiles their
    // copies (Fig. 3-3: tiles 13-16 hear the message after the consumer).
    // A received copy always carries TTL >= 1 (ageing strips zeros before
    // forwarding), so the ledger counts every non-duplicate receive as
    // accepted; if that ever stopped holding, the copy would vanish
    // without a fate and the wire law would flag the leak.
    if (message.ttl > 0) {
        const MessageId id = message.id;
        MessageId evicted{kNoTile, 0};
        const bool was_empty = tile.send_buffer.empty();
        if (tile.send_buffer.insert(std::move(message), &evicted)) {
            ++sink.metrics->packets_accepted;
            sink_trace(sink, TraceEventKind::Accepted, tile_id, kNoTile, id);
            if (sink.inserted) sink.inserted->push_back(id);
            if (was_empty) sink.activated->push_back(tile_id);
            if (evicted.origin != kNoTile) {
                ++sink.evictions;
                sink_trace(sink, TraceEventKind::BufferEvicted, tile_id, kNoTile,
                           evicted);
            }
        }
    }
}

void GossipNetwork::core_round(TileId t, StepSink& sink) {
    Context ctx(*this, t, sink);
    tiles_[t].core->on_round(ctx);
}

void GossipNetwork::age_phase() {
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        StepSink sink = shard_sink(sh);
        std::vector<MessageId> expired;
        std::size_t w = 0;
        for (std::size_t r = 0; r < sh.active.size(); ++r) {
            const TileId t = sh.active[r];
            auto& buffer = tiles_[t].send_buffer;
            if (tile_active_this_round(t)) { // [mutation-point:age-tile]
                expired.clear();
                sink.metrics->ttl_expired +=
                    buffer.age_and_collect(sink.tracing ? &expired : nullptr);
                for (const MessageId& id : expired)
                    sink_trace(sink, TraceEventKind::TtlExpired, t, kNoTile, id);
            }
            // Ageing is the only way a buffer empties; drop the tile from
            // the active list the moment it holds nothing to forward.
            if (!buffer.empty()) sh.active[w++] = t;
        }
        sh.active.resize(w);
    });
    merge_shard_effects();
    // Fold in the evictions seen since the last age phase.  Evictions in
    // the compute and forward phases after this point land in the next
    // round's fold, so the metric trails the buffers by part of a round
    // (ledger() reads the buffers directly for that reason).
    metrics_.overflow_drops += evictions_seen_ - evictions_folded_;
    evictions_folded_ = evictions_seen_;
}

void GossipNetwork::compute_phase() {
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        StepSink sink = shard_sink(sh);
        for (const TileId t : sh.cores) {
            if (!tile_active_this_round(t)) continue;
            core_round(t, sink);
        }
        sh.evictions += sink.evictions;
    });
    merge_shard_effects();
    merge_activations();
}

void GossipNetwork::forward_phase() {
    // Pass A (parallel): per-tile port gating and encoding.  Only the
    // tile's own stream is consumed, and the encode-once wire image is
    // built off the serial path.
    run_sharded([this](std::size_t s) {
        Shard& sh = shards_[s];
        for (const TileId t : sh.active) {
            if (!tile_active_this_round(t)) continue;
            const auto& nbrs = topology_.neighbours(t);
            const auto& links = topology_.out_links(t);
            std::size_t budget = forward_capacity_[t];
            const auto& msgs = tiles_[t].send_buffer.messages();
            // A capacity-limited tile (bus bridge) serves its buffer with a
            // rotating start so a long-lived rumor cannot starve newer ones
            // of the serialised medium.
            const std::size_t offset =
                (budget >= msgs.size()) ? 0 : static_cast<std::size_t>(round_) % msgs.size();
            for (std::size_t mi = 0; mi < msgs.size(); ++mi) {
                const Message& m = msgs[(mi + offset) % msgs.size()];
                if (budget == 0) break; // serialised medium saturated this round
                if (config_.stop_spread_on_delivery && delivered_unicasts_.contains(m.id))
                    continue; // spread terminated early (Sec. 3.2.2)
                // Encode-once: the up-to-4 port transmissions of this message
                // share a single wire image, built lazily when the first port
                // gate opens (a message that forwards nowhere this round costs
                // no serialisation at all).  Upset transmissions copy before
                // corrupting; see enqueue_transmission.
                std::shared_ptr<const std::vector<std::byte>> wire;
                for (std::size_t i = 0; i < nbrs.size() && budget > 0; ++i) {
                    // Fig. 3-4: the message is presented on every output port
                    // and a random decision (probability p) gates each port.
                    if (!forward_rng_[t].bernoulli(config_.forward_p)) continue;
                    if (crash_state_.dead_links[links[i]]) continue;
                    if (route_filter_[t] && !route_filter_[t](m, nbrs[i])) continue;
                    if (!wire || config_.reference_encode_path) wire = encode_message(m);
                    sh.plans.push_back(Plan{t, nbrs[i], links[i], m.id, wire});
                    --budget;
                }
            }
        }
    });
    // Pass B (serial, canonical order): replay the planned transmissions
    // through enqueue_transmission so upset draws, skew checks, ring
    // appends, link counters and traces happen in ascending tile order —
    // ascending strips concatenate to ascending tiles.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& sh = shards_[shard_merge_index(i)];
        for (Plan& p : sh.plans)
            enqueue_transmission(p.from, p.to, p.link, p.id, std::move(p.wire));
        sh.plans.clear();
    }
}

std::shared_ptr<const std::vector<std::byte>> GossipNetwork::encode_message(
    const Message& m) const {
    SNOC_PROF("engine/encode");
    Packet p = Packet::encode(m);
    if (config_.link_protection == LinkProtection::SecdedCorrect) {
        auto protected_wire = fec::protect(p.wire());
        return std::make_shared<const std::vector<std::byte>>(
            std::move(protected_wire.bytes));
    }
    return std::make_shared<const std::vector<std::byte>>(std::move(p.mutable_wire()));
}

void GossipNetwork::enqueue_transmission(TileId from, TileId to, LinkId link,
                                         MessageId id,
                                         std::shared_ptr<const std::vector<std::byte>> wire) {
    Arrival arrival{std::move(wire), false};
    if (injector_.upset_roll()) {
        // Copy-on-corrupt: only the (rare) upset transmission pays for a
        // private copy of the bytes; clean ones alias the shared image.
        auto corrupted = std::make_shared<std::vector<std::byte>>(*arrival.wire);
        injector_.apply_upset(*corrupted);
        arrival.wire = std::move(corrupted);
        arrival.corrupted = true;
    }
    const std::size_t bits = arrival.wire->size() * 8;
    ++metrics_.packets_sent;
    ++packets_this_round_;
    metrics_.bits_sent += bits;
    metrics_.bits_sent_by_tile[from] += bits;
    ++metrics_.packets_by_link[link];
    trace(TraceEventKind::Transmitted, from, to, id);

    // A transmission into a crashed tile still burns bandwidth/energy but
    // is never received; model it by enqueuing (receive_phase drops it).
    Round arrival_round = round_ + 1;
    // Synchronisation errors: if the sender's clock domain runs ahead of
    // the receiver's by more than half a round, the packet misses the
    // receiver's next receive window and slips one round further.
    if (clocks_.skew(from, to) > clocks_.t_r() / 2.0) {
        ++arrival_round;
        ++metrics_.skew_deferrals;
        trace(TraceEventKind::SkewDeferral, from, to, id);
    }
    in_flight_[arrival_round % kInFlightRing].emplace_back(to, std::move(arrival));
}

void GossipNetwork::advance_clocks() {
    for (TileId t = 0; t < tiles_.size(); ++t) {
        if (!tile_active_this_round(t)) continue;
        const double scale = clock_scale_[t];
        clocks_.advance(t, injector_.round_duration(clocks_.t_r() * scale, t));
        if (scale > 1.0) next_action_round_[t] += scale;
    }
}

bool GossipNetwork::quiescent() const {
    for (const auto& bucket : in_flight_)
        if (!bucket.empty()) return false;
    for (const Shard& sh : shards_)
        if (!sh.active.empty()) return false;
    return true;
}

void GossipNetwork::drain(Round max_extra_rounds) {
    ensure_started(); // on_start may inject the very rumors we must drain
    for (Round i = 0; i < max_extra_rounds && !quiescent(); ++i) step();
}

const CrashState& GossipNetwork::crashes() {
    ensure_started();
    return crash_state_;
}

bool GossipNetwork::tile_alive(TileId t) {
    ensure_started();
    SNOC_EXPECT(t < tiles_.size());
    return !crash_state_.dead_tiles[t];
}

std::size_t GossipNetwork::live_link_count() {
    ensure_started();
    std::size_t live = 0;
    for (LinkId l = 0; l < topology_.link_count(); ++l) {
        const auto& ends = topology_.link(l);
        if (!crash_state_.dead_links[l] && !crash_state_.dead_tiles[ends.from] &&
            !crash_state_.dead_tiles[ends.to])
            ++live;
    }
    return live;
}

std::size_t GossipNetwork::tiles_knowing(const MessageId& id) {
    ensure_started();
    if (!knowers_) {
        // known() is a superset of the held messages (ids survive ageing
        // and eviction) — exactly the knows() predicate.  Iteration order
        // is irrelevant for a counter map.
        knowers_.emplace();
        for (TileId t = 0; t < tiles_.size(); ++t)
            if (!crash_state_.dead_tiles[t])
                for (const MessageId& known : tiles_[t].send_buffer.known())
                    ++(*knowers_)[known];
    }
    const auto it = knowers_->find(id);
    return it == knowers_->end() ? 0 : it->second;
}

bool GossipNetwork::active_set_consistent() const {
    std::size_t listed = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const auto& active = shards_[s].active;
        for (std::size_t i = 0; i < active.size(); ++i) {
            const TileId t = active[i];
            if (i > 0 && active[i - 1] >= t) return false; // sorted, unique
            if (shard_of(t) != s) return false;            // owned strip
            if (crash_state_.dead_tiles[t]) return false;
            if (tiles_[t].send_buffer.empty()) return false;
        }
        listed += active.size();
    }
    // Completeness: every live tile with a non-empty buffer is listed.
    std::size_t expected = 0;
    for (TileId t = 0; t < tiles_.size(); ++t)
        if (!crash_state_.dead_tiles[t] && !tiles_[t].send_buffer.empty()) ++expected;
    return listed == expected;
}

const SendBuffer& GossipNetwork::send_buffer(TileId t) const {
    SNOC_EXPECT(t < tiles_.size());
    return tiles_[t].send_buffer;
}

std::size_t GossipNetwork::in_flight_packets() const {
    std::size_t n = 0;
    for (const auto& bucket : in_flight_) n += bucket.size();
    return n;
}

check::ConservationLedger GossipNetwork::ledger() const {
    check::ConservationLedger ledger;
    ledger.injected = metrics_.messages_created;
    ledger.transmitted = metrics_.packets_sent; // [mutation-point:ledger-transmitted]
    ledger.in_flight = in_flight_packets();
    ledger.crash_drops = metrics_.crash_drops;
    ledger.port_overflow_drops = metrics_.port_overflow_drops;
    ledger.fec_uncorrectable = metrics_.fec_uncorrectable;
    ledger.crc_drops = metrics_.crc_drops;
    ledger.duplicates = metrics_.duplicates_ignored;
    ledger.accepted = metrics_.packets_accepted;
    ledger.ttl_expired = metrics_.ttl_expired;
    // Read eviction counts straight off the buffers rather than from
    // metrics_.overflow_drops: the metric folds eviction deltas in at the
    // next age phase, so it can trail the buffers by part of a round.
    for (const auto& tile : tiles_) {
        ledger.sendbuf_evictions += tile.send_buffer.overflow_drops();
        ledger.buffered += tile.send_buffer.size();
    }
    return ledger;
}

} // namespace snoc
