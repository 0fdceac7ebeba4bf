// Run-level counters: everything Sec. 3.3 declares relevant — rounds
// (latency), packets sent (bandwidth / energy via Eq. 3), drop taxonomy
// (fault-tolerance), plus the per-round spread curve used by Fig. 3-1.
#pragma once

#include <cstddef>
#include <vector>

namespace snoc {

/// The scalar counters, one row each: X(name, "doc").  The row order is
/// the field order and the metrics-JSON key order; the struct fields,
/// the JSON summary, the invariant auditor's monotonicity snapshot and
/// the round engine's shard-delta merge all expand these rows.  The conservation ledger
/// (check/ledger.hpp) is an equation over a subset of them (crash_drops,
/// port_overflow_drops and packets_accepted exist to complete its
/// per-copy fate accounting) and stays hand-written.
#define SNOC_NETWORK_COUNTER_LIST(X)                                           \
    X(rounds, "rounds executed")                                               \
    X(packets_sent, "total link transmissions")                                \
    X(bits_sent, "exact wire bits (for Eq. 3)")                                \
    X(messages_created, "unique messages injected by IPs")                     \
    X(deliveries, "first-time deliveries to destination IPs")                  \
    X(duplicates_ignored, "re-received known messages")                        \
    X(crc_drops, "packets discarded by CRC check")                             \
    X(upsets_undetected, "corrupted packets the CRC missed")                   \
    X(overflow_drops, "forced p_overflow + capacity drops")                    \
    X(ttl_expired, "messages garbage-collected at TTL 0")                      \
    X(crash_drops, "transmissions sunk into dead tiles")                       \
    X(port_overflow_drops, "the receive-side slice of overflow_drops (the "    \
                           "rest are send-buffer evictions)")                  \
    X(packets_accepted, "wire copies merged into a send buffer "               \
                        "(non-duplicate receives)")                            \
    X(skew_deferrals, "arrivals pushed a round by clock skew")                 \
    X(fec_corrected, "SECDED words repaired at receivers")                     \
    X(fec_uncorrectable, "packets lost to multi-bit upsets")

struct NetworkMetrics {
#define SNOC_NETWORK_COUNTER_FIELD(name, doc) std::size_t name{0};
    SNOC_NETWORK_COUNTER_LIST(SNOC_NETWORK_COUNTER_FIELD)
#undef SNOC_NETWORK_COUNTER_FIELD

    /// packets sent in each round (index = round).  The series ends at
    /// the last round that carried a packet: quiet rounds after it are not
    /// stored, so a run capped long after quiescence keeps no tail of
    /// zeros (rounds inside the series may still read 0).
    std::vector<std::size_t> packets_per_round;

    /// wire bits transmitted by each tile (index = tile) — lets island-
    /// aware energy models weight traffic by the sender's supply voltage.
    std::vector<std::size_t> bits_sent_by_tile;

    /// packets carried by each directed link (index = LinkId).  Sec. 3.3.1:
    /// "This protocol spreads the traffic onto all the links in the
    /// network, thereby reducing the chances that packets are delayed
    /// because of congestion" — this is the evidence.
    std::vector<std::size_t> packets_by_link;

    /// Count `packets` sent in `round`, growing packets_per_round on
    /// demand; a zero count stores nothing.
    void add_round_packets(std::size_t round, std::size_t packets) {
        if (packets == 0) return;
        if (packets_per_round.size() <= round) packets_per_round.resize(round + 1, 0);
        packets_per_round[round] += packets;
    }

    /// Max-to-mean ratio of per-link traffic (1 = perfectly even).
    double link_hotspot_factor() const {
        if (packets_by_link.empty() || packets_sent == 0) return 0.0;
        std::size_t max = 0;
        for (auto n : packets_by_link) max = n > max ? n : max;
        const double mean = static_cast<double>(packets_sent) /
                            static_cast<double>(packets_by_link.size());
        return mean > 0.0 ? static_cast<double>(max) / mean : 0.0;
    }

    /// Average packets per link per round — the N_packets/round of Eq. 2.
    double packets_per_link_round(std::size_t live_links) const {
        if (rounds == 0 || live_links == 0) return 0.0;
        return static_cast<double>(packets_sent) /
               (static_cast<double>(rounds) * static_cast<double>(live_links));
    }

    /// Average packet size S in bits (Eq. 2 / Eq. 3).
    double average_packet_bits() const {
        if (packets_sent == 0) return 0.0;
        return static_cast<double>(bits_sent) / static_cast<double>(packets_sent);
    }
};

} // namespace snoc
