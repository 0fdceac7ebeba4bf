#include "fault/injector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/stats.hpp"

namespace snoc {
namespace {

Packet sample_packet(std::size_t payload_bytes = 64) {
    Message m;
    m.id = MessageId{1, 2};
    m.source = 1;
    m.destination = 3;
    m.ttl = 10;
    m.payload.assign(payload_bytes, std::byte{0x5A});
    return Packet::encode(m);
}

/// One transmission through the injector, as the engine makes it: roll
/// the gate, and scramble the wire only when it fires.
bool upset(FaultInjector& inj, Packet& packet) {
    if (!inj.upset_roll()) return false;
    inj.apply_upset(packet.mutable_wire());
    return true;
}

TEST(FaultScenario, ValidateAcceptsDefaults) {
    EXPECT_NO_THROW(FaultScenario::none().validate());
}

TEST(FaultScenario, ValidateRejectsOutOfRange) {
    FaultScenario s;
    s.p_upset = 1.5;
    EXPECT_THROW(s.validate(), ContractViolation);
    s = {};
    s.p_tiles = -0.1;
    EXPECT_THROW(s.validate(), ContractViolation);
    s = {};
    s.sigma_synchr = -1.0;
    EXPECT_THROW(s.validate(), ContractViolation);
}

TEST(FaultScenario, DescribeMentionsEveryKnob) {
    FaultScenario s;
    s.p_tiles = 0.1;
    s.p_upset = 0.3;
    s.upset_model = UpsetModel::RandomErrorVector;
    const auto text = s.describe();
    EXPECT_NE(text.find("tiles=0.1"), std::string::npos);
    EXPECT_NE(text.find("upset=0.3"), std::string::npos);
    EXPECT_NE(text.find("random-error-vector"), std::string::npos);
}

TEST(FaultInjector, NoFaultsMeansNoEffects) {
    RngPool pool(1);
    FaultInjector inj(FaultScenario::none(), pool);
    auto p = sample_packet();
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(upset(inj, p));
        EXPECT_FALSE(inj.overflow_drop());
    }
    EXPECT_TRUE(p.crc_ok());
    EXPECT_EQ(inj.upsets_injected(), 0u);
}

TEST(FaultInjector, CrashRateMatchesProbability) {
    const auto topo = Topology::mesh(16, 16); // 256 tiles
    FaultScenario s;
    s.p_tiles = 0.3;
    Accumulator rate;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(topo);
        rate.add(static_cast<double>(crashes.dead_tile_count()) / 256.0);
    }
    EXPECT_NEAR(rate.mean(), 0.3, 0.03);
}

TEST(FaultInjector, ProtectedTilesNeverCrash) {
    const auto topo = Topology::mesh(4, 4);
    FaultScenario s;
    s.p_tiles = 0.9;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(topo, {5, 11});
        EXPECT_FALSE(crashes.dead_tiles[5]);
        EXPECT_FALSE(crashes.dead_tiles[11]);
    }
}

TEST(FaultInjector, ExactCrashCountIsExact) {
    const auto topo = Topology::mesh(5, 5);
    RngPool pool(9);
    FaultInjector inj(FaultScenario::none(), pool);
    for (std::size_t k : {0u, 1u, 5u, 12u}) {
        RngPool p2(k + 100);
        FaultInjector fresh(FaultScenario::none(), p2);
        const auto crashes = fresh.roll_exact_tile_crashes(topo, k, {12});
        EXPECT_EQ(crashes.dead_tile_count(), k);
        EXPECT_FALSE(crashes.dead_tiles[12]);
    }
}

TEST(FaultInjector, ExactCrashRespectsCandidateLimit) {
    const auto topo = Topology::mesh(2, 2);
    RngPool pool(3);
    FaultInjector inj(FaultScenario::none(), pool);
    EXPECT_THROW(inj.roll_exact_tile_crashes(topo, 4, {0}), ContractViolation);
}

TEST(FaultInjector, LinkCrashesIndependentOfTiles) {
    const auto topo = Topology::mesh(8, 8);
    FaultScenario s;
    s.p_links = 0.25;
    Accumulator rate;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        RngPool pool(seed);
        FaultInjector inj(s, pool);
        const auto crashes = inj.roll_crashes(topo);
        EXPECT_EQ(crashes.dead_tile_count(), 0u);
        rate.add(static_cast<double>(crashes.dead_link_count()) /
                 static_cast<double>(topo.link_count()));
    }
    EXPECT_NEAR(rate.mean(), 0.25, 0.03);
}

TEST(FaultInjector, UpsetRateMatchesPUpset) {
    FaultScenario s;
    s.p_upset = 0.4;
    RngPool pool(5);
    FaultInjector inj(s, pool);
    int corrupted = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        auto p = sample_packet();
        if (upset(inj, p)) ++corrupted;
    }
    EXPECT_NEAR(static_cast<double>(corrupted) / n, 0.4, 0.03);
    EXPECT_EQ(inj.upsets_injected(), static_cast<std::size_t>(corrupted));
}

TEST(FaultInjector, BitErrorModelAlwaysChangesWire) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomBitError;
    RngPool pool(6);
    FaultInjector inj(s, pool);
    for (int i = 0; i < 200; ++i) {
        auto p = sample_packet();
        const auto original = p.wire();
        EXPECT_TRUE(upset(inj, p));
        EXPECT_NE(p.wire(), original);
    }
}

TEST(FaultInjector, BitErrorModelFlipsFewBits) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomBitError;
    RngPool pool(7);
    FaultInjector inj(s, pool);
    Accumulator flips;
    for (int i = 0; i < 500; ++i) {
        auto p = sample_packet();
        const auto original = p.wire();
        upset(inj, p);
        int diff = 0;
        for (std::size_t b = 0; b < original.size(); ++b) {
            auto x = static_cast<unsigned>(original[b] ^ p.wire()[b]);
            while (x) {
                diff += static_cast<int>(x & 1u);
                x >>= 1;
            }
        }
        EXPECT_GE(diff, 1);
        flips.add(diff);
    }
    // E[flips] = 2 + P(no bit flipped) ~ 2.13: the fallback flip adds the
    // zero-flip mass to the documented ~2-bit burst.
    EXPECT_NEAR(flips.mean(), 2.0, 0.5);
}

TEST(FaultInjector, ErrorVectorModelScramblesManyBits) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = UpsetModel::RandomErrorVector;
    RngPool pool(8);
    FaultInjector inj(s, pool);
    Accumulator flips;
    for (int i = 0; i < 200; ++i) {
        auto p = sample_packet();
        const auto original = p.wire();
        upset(inj, p);
        int diff = 0;
        for (std::size_t b = 0; b < original.size(); ++b) {
            auto x = static_cast<unsigned>(original[b] ^ p.wire()[b]);
            while (x) {
                diff += static_cast<int>(x & 1u);
                x >>= 1;
            }
        }
        EXPECT_GE(diff, 1);
        flips.add(diff);
    }
    // Uniform error vector flips ~half the bits on average.
    const double nbits = static_cast<double>(sample_packet().bit_size());
    EXPECT_NEAR(flips.mean(), nbits / 2.0, nbits * 0.05);
}

TEST(FaultInjector, UpsetsAreCaughtByCrc) {
    FaultScenario s;
    s.p_upset = 1.0;
    for (auto model : {UpsetModel::RandomBitError, UpsetModel::RandomErrorVector}) {
        s.upset_model = model;
        RngPool pool(9);
        FaultInjector inj(s, pool);
        int undetected = 0;
        for (int i = 0; i < 500; ++i) {
            auto p = sample_packet();
            upset(inj, p);
            if (p.crc_ok()) ++undetected;
        }
        // CRC-32 misses with probability ~2^-32; 500 trials should all catch.
        EXPECT_EQ(undetected, 0) << to_string(model);
    }
}

TEST(FaultInjector, OverflowRateMatchesProbability) {
    FaultScenario s;
    s.p_overflow = 0.2;
    RngPool pool(10);
    FaultInjector inj(s, pool);
    int drops = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        if (inj.overflow_drop()) ++drops;
    EXPECT_NEAR(static_cast<double>(drops) / n, 0.2, 0.02);
    EXPECT_EQ(inj.overflows_forced(), static_cast<std::size_t>(drops));
}

TEST(FaultInjector, RoundDurationJitterMatchesSigma) {
    FaultScenario s;
    s.sigma_synchr = 0.1;
    RngPool pool(11);
    FaultInjector inj(s, pool);
    Accumulator acc;
    for (int i = 0; i < 5000; ++i) acc.add(inj.round_duration(1e-6, 0));
    EXPECT_NEAR(acc.mean(), 1e-6, 1e-8);
    EXPECT_NEAR(acc.stddev(), 0.1e-6, 0.01e-6);
}

TEST(FaultInjector, RoundDurationNeverNonPositive) {
    FaultScenario s;
    s.sigma_synchr = 3.0; // extreme jitter
    RngPool pool(12);
    FaultInjector inj(s, pool);
    for (int i = 0; i < 2000; ++i) EXPECT_GT(inj.round_duration(1e-6, 0), 0.0);
}

TEST(FaultInjector, DeterministicAcrossRuns) {
    FaultScenario s;
    s.p_upset = 0.5;
    s.p_overflow = 0.3;
    RngPool pool_a(77), pool_b(77);
    FaultInjector a(s, pool_a), b(s, pool_b);
    for (int i = 0; i < 100; ++i) {
        auto pa = sample_packet();
        auto pb = sample_packet();
        EXPECT_EQ(upset(a, pa), upset(b, pb));
        EXPECT_EQ(pa.wire(), pb.wire());
        EXPECT_EQ(a.overflow_drop(), b.overflow_drop());
    }
}

// ---------------------------------------------------------------------------
// Upset models against their probability law.  Each test draws a fixed
// number of upsets at a fixed seed and applies a chi-square goodness-of-fit
// test at the 0.1% level, so it is deterministic and, at these sample
// sizes, sensitive to a wrong law (see FlipCountTestRejectsConditioning).

/// Pearson's chi-square statistic of observed against expected counts.
double chi_square(const std::vector<double>& observed, const std::vector<double>& expected) {
    double chi2 = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double d = observed[i] - expected[i];
        chi2 += d * d / expected[i];
    }
    return chi2;
}

/// Upper 0.1% point of chi-square with `df` degrees of freedom
/// (Wilson-Hilferty; within 1% of the exact quantile for df >= 6).
double chi_square_critical(std::size_t df) {
    const double k = static_cast<double>(df);
    const double z = 3.090; // standard normal upper 0.1% point
    const double c = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * c * c * c;
}

/// Binomial pmf, B(k; n, p).
double binomial_pmf(std::size_t k, std::size_t n, double p) {
    const double nd = static_cast<double>(n), kd = static_cast<double>(k);
    return std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                    std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                    (nd - kd) * std::log1p(-p));
}

/// The flip-count law of the random-bit-error model on an n-bit wire:
/// each bit flips independently with p_b = 2/n, and if none did, one
/// uniform bit flips.  Bins K = 1, ..., kMaxCount - 1 and K >= kMaxCount.
constexpr std::size_t kMaxCount = 7;
std::vector<double> flip_count_law(std::size_t nbits) {
    const double p = 2.0 / static_cast<double>(nbits);
    std::vector<double> law(kMaxCount, 0.0);
    law[0] = binomial_pmf(1, nbits, p) + binomial_pmf(0, nbits, p);
    double rest = 1.0 - law[0];
    for (std::size_t k = 2; k < kMaxCount; ++k) {
        law[k - 1] = binomial_pmf(k, nbits, p);
        rest -= law[k - 1];
    }
    law[kMaxCount - 1] = rest;
    return law;
}

/// Chi-square of `trials` flip counts drawn by `sample` against the law.
template <typename Sample>
double flip_count_chi_square(std::size_t nbits, std::size_t trials, Sample sample) {
    std::vector<double> observed(kMaxCount, 0.0);
    for (std::size_t i = 0; i < trials; ++i) {
        const std::size_t k = sample();
        EXPECT_GE(k, 1u);
        observed[std::min(k, kMaxCount) - 1] += 1.0;
    }
    std::vector<double> expected = flip_count_law(nbits);
    for (double& e : expected) e *= static_cast<double>(trials);
    return chi_square(observed, expected);
}

/// Bits set in a wire (the flips of an upset applied to an all-zero wire).
std::size_t set_bits(const std::vector<std::byte>& wire) {
    std::size_t n = 0;
    for (std::byte b : wire) n += static_cast<std::size_t>(std::popcount(std::to_integer<unsigned>(b)));
    return n;
}

FaultInjector always_upsetting(UpsetModel model, const RngPool& pool) {
    FaultScenario s;
    s.p_upset = 1.0;
    s.upset_model = model;
    return FaultInjector(s, pool);
}

// nbits = 240 is a short control packet; 2216 is mp3_upset's 277-byte wire.
constexpr std::size_t kWireBytes[] = {30, 277};
constexpr std::size_t kUpsets = 20000;

TEST(UpsetLaw, BitErrorFlipCountMatchesFallbackLaw) {
    for (std::size_t bytes : kWireBytes) {
        RngPool pool(101 + bytes);
        FaultInjector inj = always_upsetting(UpsetModel::RandomBitError, pool);
        const double chi2 = flip_count_chi_square(bytes * 8, kUpsets, [&] {
            std::vector<std::byte> wire(bytes);
            inj.apply_upset(wire);
            return set_bits(wire);
        });
        EXPECT_LT(chi2, chi_square_critical(kMaxCount - 1)) << "nbits=" << bytes * 8;
    }
}

TEST(UpsetLaw, FlipCountTestRejectsConditioning) {
    // Resampling until at least one bit flips is a different law: it puts
    // P(K=1) = Bin(1) / (1 - Bin(0)) ~ 0.313 where the fallback puts
    // Bin(1) + Bin(0) ~ 0.406.  The count test must tell them apart.
    for (std::size_t bytes : kWireBytes) {
        const std::size_t nbits = bytes * 8;
        RngStream rng(202 + bytes);
        const double chi2 = flip_count_chi_square(nbits, kUpsets, [&] {
            for (;;) {
                std::size_t k = 0;
                for (std::size_t b = 0; b < nbits; ++b)
                    k += rng.bernoulli(2.0 / static_cast<double>(nbits)) ? 1 : 0;
                if (k > 0) return k;
            }
        });
        EXPECT_GT(chi2, 10.0 * chi_square_critical(kMaxCount - 1)) << "nbits=" << nbits;
    }
}

TEST(UpsetLaw, BitErrorPositionsAreUniform) {
    for (std::size_t bytes : kWireBytes) {
        const std::size_t nbits = bytes * 8;
        RngPool pool(303 + bytes);
        FaultInjector inj = always_upsetting(UpsetModel::RandomBitError, pool);
        std::vector<double> observed(nbits, 0.0);
        double flips = 0.0;
        for (std::size_t i = 0; i < kUpsets; ++i) {
            std::vector<std::byte> wire(bytes);
            inj.apply_upset(wire);
            for (std::size_t b = 0; b < nbits; ++b) {
                if (std::to_integer<unsigned>(wire[b / 8] >> (b % 8)) & 1u) {
                    observed[b] += 1.0;
                    flips += 1.0;
                }
            }
        }
        const std::vector<double> expected(nbits, flips / static_cast<double>(nbits));
        EXPECT_LT(chi_square(observed, expected), chi_square_critical(nbits - 1))
            << "nbits=" << nbits;
    }
}

TEST(UpsetLaw, ErrorVectorBytesAreUniformAndIndependent) {
    // 30 bytes = three full engine words and a six-byte tail.  Every byte
    // value is equally likely, and adjacent bytes (within a word and across
    // a word boundary) are independent: the histogram of their low-nibble
    // pairs is flat too.
    constexpr std::size_t bytes = 30, upsets = 4000;
    RngPool pool(404);
    FaultInjector inj = always_upsetting(UpsetModel::RandomErrorVector, pool);
    std::vector<double> values(256, 0.0), pairs(256, 0.0);
    for (std::size_t i = 0; i < upsets; ++i) {
        std::vector<std::byte> wire(bytes);
        inj.apply_upset(wire);
        for (std::size_t b = 0; b < bytes; ++b) {
            const auto v = std::to_integer<unsigned>(wire[b]);
            values[v] += 1.0;
            if (b + 1 < bytes)
                pairs[(v & 0xFu) << 4 | (std::to_integer<unsigned>(wire[b + 1]) & 0xFu)] += 1.0;
        }
    }
    const double n_values = static_cast<double>(upsets * bytes);
    const double n_pairs = static_cast<double>(upsets * (bytes - 1));
    EXPECT_LT(chi_square(values, std::vector<double>(256, n_values / 256.0)),
              chi_square_critical(255));
    EXPECT_LT(chi_square(pairs, std::vector<double>(256, n_pairs / 256.0)),
              chi_square_critical(255));
}

TEST(UpsetLaw, ErrorVectorIsUniformOverNonZeroVectors) {
    // On a one-byte wire the all-zero vector comes up one time in 256 and
    // is redrawn; the other 255 vectors stay equally likely.
    constexpr std::size_t upsets = 255 * 200;
    RngPool pool(505);
    FaultInjector inj = always_upsetting(UpsetModel::RandomErrorVector, pool);
    std::vector<double> observed(255, 0.0);
    for (std::size_t i = 0; i < upsets; ++i) {
        std::vector<std::byte> wire(1);
        inj.apply_upset(wire);
        const auto v = std::to_integer<unsigned>(wire[0]);
        ASSERT_NE(v, 0u);
        observed[v - 1] += 1.0;
    }
    EXPECT_LT(chi_square(observed, std::vector<double>(255, 200.0)), chi_square_critical(254));
}

} // namespace
} // namespace snoc
