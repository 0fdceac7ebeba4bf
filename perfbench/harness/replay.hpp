// Layer replays: time single calls into the rng, fault, noc and apps
// layers at the parameters the workload itself used (its p values, its
// upset model, the mean wire size its run produced, its MP3 frame
// parameters), so a later change to packet framing or to a draw moves
// the replay with it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apps/mp3_app.hpp"
#include "fault/fault_model.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayInputs {
    std::uint64_t seed{0};
    std::vector<double> forward_ps;
    std::vector<double> upset_ps;
    snoc::UpsetModel upset_model{snoc::UpsetModel::RandomBitError};
    std::size_t wire_bytes{0};              ///< bits_sent / packets_sent / 8.
    std::optional<snoc::apps::Mp3Config> mp3; ///< defaults when absent.
};

/// Nanoseconds per call (microseconds for the MP3 frame), each the median
/// of five timed repetitions.
struct ReplayResult {
    double bernoulli_ns{0.0};    ///< RngStream::bernoulli at the forward p's.
    double normal_ns{0.0};       ///< FaultInjector::round_duration (normal draw)
                                 ///< at the default T_R and sigma_synchr = 0,
                                 ///< as every workload runs.
    double upset_roll_ns{0.0};   ///< FaultInjector::upset_roll at the p_upset's.
    double apply_upset_ns{0.0};  ///< FaultInjector::apply_upset on one wire.
    double encode_ns{0.0};       ///< Packet::encode of one message.
    double crc_ok_wire_ns{0.0};  ///< Packet::crc_ok_wire of one wire.
    double decode_wire_ns{0.0};  ///< Packet::decode_wire of one wire.
    double mp3_frame_us{0.0};    ///< psycho + MDCT + quantize, one frame.
};

/// Runs every replay, recording one span per timed repetition under a
/// "replay" root span in `log`.
ReplayResult replay_layers(const ReplayInputs& in, SpanLog& log);

} // namespace perfbench
