#include "router/accounting.hpp"

#include "common/expect.hpp"
#include "telemetry/metrics_registry.hpp"

namespace snoc::router {

void Accounting::attach(const Topology& topo) {
    metrics_.bits_sent_by_tile.assign(topo.node_count(), 0);
    metrics_.packets_by_link.assign(topo.link_count(), 0);
}

void Accounting::advance_to(Round round) {
    if (round > metrics_.rounds) metrics_.rounds = round;
}

void Accounting::created(Round round, TileId tile, MessageId id) {
    advance_to(round);
    ++metrics_.messages_created;
    emit(sink_, round, TraceEventKind::MessageCreated, tile, kNoTile, id);
}

void Accounting::transmitted(Round round, TileId from, TileId to, LinkId link,
                             MessageId id, std::size_t bits) {
    advance_to(round);
    ++metrics_.packets_sent;
    metrics_.bits_sent += bits;
    if (from < metrics_.bits_sent_by_tile.size())
        metrics_.bits_sent_by_tile[from] += bits;
    if (link < metrics_.packets_by_link.size()) ++metrics_.packets_by_link[link];
    metrics_.add_round_packets(round, 1);
    emit(sink_, round, TraceEventKind::Transmitted, from, to, id);
}

void Accounting::delivered(Round round, TileId tile, MessageId id) {
    advance_to(round);
    ++metrics_.deliveries;
    emit(sink_, round, TraceEventKind::Delivered, tile, kNoTile, id);
}

void Accounting::crash_drop(Round round, TileId tile, MessageId id) {
    advance_to(round);
    ++metrics_.crash_drops;
    emit(sink_, round, TraceEventKind::CrashDrop, tile, kNoTile, id);
}

void Accounting::ttl_expired(Round round, TileId tile, MessageId id) {
    advance_to(round);
    ++metrics_.ttl_expired;
    emit(sink_, round, TraceEventKind::TtlExpired, tile, kNoTile, id);
}

void Accounting::publish_registry() {
    auto& reg = MetricsRegistry::global();
    const auto bump = [&](MetricId id, std::size_t current,
                          std::size_t& published) {
        if (current > published) {
            reg.inc(id, current - published);
            published = current;
        }
    };
    bump(MetricId::RouterPacketsCreatedTotal, metrics_.messages_created,
         published_.created);
    bump(MetricId::RouterPacketsTransmittedTotal, metrics_.packets_sent,
         published_.transmitted);
    bump(MetricId::RouterPacketsDeliveredTotal, metrics_.deliveries,
         published_.delivered);
    bump(MetricId::RouterCrashDropsTotal, metrics_.crash_drops,
         published_.crash_drops);
    bump(MetricId::RouterTtlExpiredTotal, metrics_.ttl_expired,
         published_.ttl_expired);
}

} // namespace snoc::router
