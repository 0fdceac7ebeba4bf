#include "replay.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>

#include "apps/audio.hpp"
#include "apps/mdct.hpp"
#include "apps/psycho.hpp"
#include "apps/quantizer.hpp"
#include "common/rng.hpp"
#include "core/gossip_config.hpp"
#include "fault/injector.hpp"
#include "noc/packet.hpp"

namespace perfbench {

namespace {

using namespace snoc;

/// Results feed this so the timed calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median time per call of `body(iterations)` over five repetitions,
/// with the iteration count grown until one repetition takes >= 2 ms.
double time_per_call(const char* name, std::size_t start_iterations,
                     const std::function<std::uint64_t(std::size_t)>& body,
                     SpanLog& log, std::int32_t parent) {
    std::size_t iterations = std::max<std::size_t>(start_iterations, 1);
    for (;;) {
        const std::int64_t t0 = now_ns();
        g_sink = g_sink + body(iterations);
        if (now_ns() - t0 >= 2'000'000 || iterations >= (std::size_t{1} << 30)) break;
        iterations *= 2;
    }
    std::vector<double> per_call;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int32_t span = log.open(name, parent);
        g_sink = g_sink + body(iterations);
        log.close(span);
        const Span& s = log.spans()[static_cast<std::size_t>(span)];
        per_call.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                           static_cast<double>(iterations));
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[per_call.size() / 2];
}

Message message_of_wire_size(std::size_t wire_bytes) {
    Message m;
    m.id = MessageId{1, 2};
    m.source = 1;
    m.destination = 3;
    m.tag = 0x42;
    m.ttl = 30;
    const std::size_t payload =
        wire_bytes > kWireOverheadBytes ? wire_bytes - kWireOverheadBytes : 0;
    for (std::size_t i = 0; i < payload; ++i)
        m.payload.push_back(static_cast<std::byte>(i * 37 + 11));
    return m;
}

} // namespace

ReplayResult replay_layers(const ReplayInputs& in, SpanLog& log) {
    ReplayResult out;
    const std::int32_t root = log.open("replay");
    const RngPool pool(in.seed);

    {
        RngStream rng = pool.stream("perfbench/bernoulli");
        const std::vector<double> ps = in.forward_ps;
        out.bernoulli_ns = time_per_call(
            "replay.rng.bernoulli", 1 << 16,
            [&](std::size_t n) {
                std::uint64_t hits = 0;
                // The engine draws a whole run at one p; cycle p per block.
                const std::size_t block = n / ps.size() + 1;
                for (double p : ps)
                    for (std::size_t i = 0; i < block; ++i) hits += rng.bernoulli(p);
                return hits;
            },
            log, root);
    }
    {
        FaultInjector injector(FaultScenario{}, pool);
        const double t_r = GossipConfig{}.timing.round_seconds();
        out.normal_ns = time_per_call(
            "replay.rng.normal", 1 << 16,
            [&](std::size_t n) {
                double sum = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                    sum += injector.round_duration(t_r, static_cast<TileId>(i & 15));
                return static_cast<std::uint64_t>(sum * 1e12);
            },
            log, root);
    }
    {
        std::vector<FaultInjector> injectors;
        for (double p : in.upset_ps) {
            FaultScenario s;
            s.p_upset = p;
            s.upset_model = in.upset_model;
            injectors.emplace_back(s, pool);
        }
        out.upset_roll_ns = time_per_call(
            "replay.fault.upset_roll", 1 << 16,
            [&](std::size_t n) {
                std::uint64_t hits = 0;
                const std::size_t block = n / injectors.size() + 1;
                for (auto& injector : injectors)
                    for (std::size_t i = 0; i < block; ++i) hits += injector.upset_roll();
                return hits;
            },
            log, root);
    }
    const Message message = message_of_wire_size(in.wire_bytes);
    const std::vector<std::byte> wire = Packet::encode(message).wire();
    {
        FaultScenario s;
        s.p_upset = 1.0;
        s.upset_model = in.upset_model;
        FaultInjector injector(s, pool);
        std::vector<std::byte> corrupted = wire;
        out.apply_upset_ns = time_per_call(
            "replay.fault.apply_upset", 256,
            [&](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) injector.apply_upset(corrupted);
                return static_cast<std::uint64_t>(corrupted[0]);
            },
            log, root);
    }
    out.encode_ns = time_per_call(
        "replay.noc.encode", 1024,
        [&](std::size_t n) {
            std::uint64_t bytes = 0;
            for (std::size_t i = 0; i < n; ++i) bytes += Packet::encode(message).byte_size();
            return bytes;
        },
        log, root);
    out.crc_ok_wire_ns = time_per_call(
        "replay.noc.crc_ok_wire", 1024,
        [&](std::size_t n) {
            std::uint64_t ok = 0;
            for (std::size_t i = 0; i < n; ++i) ok += Packet::crc_ok_wire(wire);
            return ok;
        },
        log, root);
    out.decode_wire_ns = time_per_call(
        "replay.noc.decode_wire", 1024,
        [&](std::size_t n) {
            std::uint64_t ok = 0;
            for (std::size_t i = 0; i < n; ++i) ok += Packet::decode_wire(wire).has_value();
            return ok;
        },
        log, root);
    {
        const apps::Mp3Config mp3 = in.mp3.value_or(apps::Mp3Config{});
        const std::size_t n_samples = mp3.frame_samples;
        apps::ToneGenerator generator(apps::AudioParams{}, in.seed);
        constexpr std::size_t kFrames = 16;
        std::vector<std::vector<double>> pcm, windows;
        std::vector<double> history(n_samples, 0.0);
        for (std::size_t f = 0; f < kFrames; ++f) {
            pcm.push_back(generator.frame(n_samples));
            std::vector<double> window = history;
            window.insert(window.end(), pcm.back().begin(), pcm.back().end());
            windows.push_back(std::move(window));
            history = pcm.back();
        }
        apps::PsychoParams params;
        params.band_count = mp3.band_count;
        const apps::Mdct mdct(n_samples);
        const apps::IterativeQuantizer quantizer(
            apps::band_of_lines(n_samples, mp3.band_count), mp3.band_count);
        out.mp3_frame_us =
            time_per_call("replay.apps.mp3_frame", 4,
                          [&](std::size_t n) {
                              std::uint64_t bits = 0;
                              for (std::size_t i = 0; i < n; ++i) {
                                  const std::size_t f = i % kFrames;
                                  const auto psycho = apps::analyze_frame(pcm[f], params);
                                  const auto coeffs = mdct.forward(windows[f]);
                                  bits += quantizer
                                              .quantize(coeffs, psycho,
                                                        mp3.frame_budget_bits,
                                                        static_cast<std::uint32_t>(f))
                                              .coded_bits;
                              }
                              return bits;
                          },
                          log, root) *
            1e-3;
    }
    log.close(root);
    return out;
}

} // namespace perfbench
