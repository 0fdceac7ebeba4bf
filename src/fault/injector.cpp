#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/expect.hpp"

namespace snoc {

std::size_t CrashState::dead_tile_count() const {
    return static_cast<std::size_t>(
        std::count(dead_tiles.begin(), dead_tiles.end(), true));
}

std::size_t CrashState::dead_link_count() const {
    return static_cast<std::size_t>(
        std::count(dead_links.begin(), dead_links.end(), true));
}

FaultInjector::FaultInjector(FaultScenario scenario, const RngPool& pool)
    : scenario_(scenario),
      crash_rng_(pool.stream("fault/crash")),
      upset_rng_(pool.stream("fault/upset")),
      overflow_rng_(pool.stream("fault/overflow")),
      synchr_rng_(pool.stream("fault/synchr")) {
    scenario_.validate();
}

CrashState FaultInjector::roll_crashes(const Topology& topo,
                                       const std::vector<TileId>& protected_tiles) {
    CrashState state;
    state.dead_tiles.assign(topo.node_count(), false);
    state.dead_links.assign(topo.link_count(), false);
    for (TileId t = 0; t < topo.node_count(); ++t) {
        const bool is_protected =
            std::find(protected_tiles.begin(), protected_tiles.end(), t) !=
            protected_tiles.end();
        if (!is_protected && crash_rng_.bernoulli(scenario_.p_tiles))
            state.dead_tiles[t] = true;
    }
    for (LinkId l = 0; l < topo.link_count(); ++l)
        if (crash_rng_.bernoulli(scenario_.p_links)) state.dead_links[l] = true;
    return state;
}

CrashState FaultInjector::roll_exact_tile_crashes(
    const Topology& topo, std::size_t k, const std::vector<TileId>& protected_tiles) {
    CrashState state;
    state.dead_tiles.assign(topo.node_count(), false);
    state.dead_links.assign(topo.link_count(), false);

    std::vector<TileId> candidates;
    for (TileId t = 0; t < topo.node_count(); ++t) {
        const bool is_protected =
            std::find(protected_tiles.begin(), protected_tiles.end(), t) !=
            protected_tiles.end();
        if (!is_protected) candidates.push_back(t);
    }
    SNOC_EXPECT(k <= candidates.size());
    // Partial Fisher-Yates: pick k distinct victims.
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = i + static_cast<std::size_t>(crash_rng_.below(candidates.size() - i));
        std::swap(candidates[i], candidates[j]);
        state.dead_tiles[candidates[i]] = true;
    }
    // Links still crash independently (usually p_links == 0 in this mode).
    for (LinkId l = 0; l < topo.link_count(); ++l)
        if (crash_rng_.bernoulli(scenario_.p_links)) state.dead_links[l] = true;
    return state;
}

bool FaultInjector::upset_roll() {
    return upset_rng_.bernoulli(scenario_.p_upset);
}

void FaultInjector::apply_upset(std::vector<std::byte>& wire) {
    corrupt(wire);
    ++upsets_;
}

void FaultInjector::corrupt(std::vector<std::byte>& wire) {
    SNOC_EXPECT(!wire.empty());
    const std::size_t nbits = wire.size() * 8;

    auto flip = [&wire](std::size_t bit) {
        wire[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    };

    switch (scenario_.upset_model) {
    case UpsetModel::RandomBitError: {
        // e_1..e_n independent with p_b = 2/n, so ~2 bits flip: a burst-free
        // DSM noise event (crosstalk glitch on a couple of wires).  If no
        // bit flipped, one uniform bit is flipped instead, so every upset
        // scrambles the packet and P[packet scrambled] == p_upset exactly.
        // That fallback is not conditioning on >= 1 flip: it moves the
        // zero-flip mass Bin(0) onto K = 1, where conditioning would spread
        // it over every K >= 1.
        //
        // Flip positions are sampled by their gaps, each geometric(p_b) by
        // inverse CDF, so an upset costs flips + 1 uniforms, not n draws.
        const auto n = static_cast<double>(nbits);
        const double log_q = std::log1p(-2.0 / n);
        auto gap = [&] { return std::floor(std::log1p(-upset_rng_.uniform()) / log_q); };
        std::size_t flips = 0;
        for (double b = gap(); b < n; b += 1.0 + gap()) {
            flip(static_cast<std::size_t>(b));
            ++flips;
        }
        if (flips == 0) flip(static_cast<std::size_t>(upset_rng_.below(nbits)));
        break;
    }
    case UpsetModel::RandomErrorVector: {
        // All 2^n - 1 non-null vectors equally likely: XOR uniform random
        // bytes, eight from each engine word, and redraw the whole vector
        // if the all-zero one comes up.
        bool nonzero = false;
        while (!nonzero) {
            std::uint64_t word = 0;
            for (std::size_t i = 0; i < wire.size(); ++i) {
                if (i % 8 == 0) word = upset_rng_.bits();
                const auto r = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
                wire[i] ^= static_cast<std::byte>(r);
                nonzero = nonzero || r != 0;
            }
        }
        break;
    }
    }
}

bool FaultInjector::overflow_drop() {
    if (!overflow_rng_.bernoulli(scenario_.p_overflow)) return false;
    ++overflows_;
    return true;
}

double FaultInjector::round_duration(double t_r, TileId tile) {
    SNOC_EXPECT(t_r > 0.0);
    (void)tile; // one shared stream keeps draw order deterministic per run
    const double d = synchr_rng_.normal(t_r, scenario_.sigma_synchr * t_r);
    return std::max(d, 0.01 * t_r);
}

} // namespace snoc
