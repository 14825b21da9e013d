// Tests for the code constructions: beep codes (Thm 4), distance codes
// (Lemma 6), the combined code (Notation 7), decoders, and the
// Kautz-Singleton baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codes/analysis.h"
#include "codes/beep_code.h"
#include "codes/combined_code.h"
#include "codes/decoders.h"
#include "codes/distance_code.h"
#include "codes/kautz_singleton.h"
#include "common/error.h"

namespace nb {
namespace {

TEST(BeepCode, Theorem4Dimensions) {
    // (a, k, 1/c)-beep code: length c^2*k*a, weight c*a.
    const BeepCode code = BeepCode::theorem4(10, 5, 3, /*seed=*/1);
    EXPECT_EQ(code.length(), 3u * 3u * 5u * 10u);
    EXPECT_EQ(code.weight(), 3u * 10u);
}

TEST(BeepCode, CodewordsHaveExactWeight) {
    const BeepCode code(1200, 40, 7);
    for (std::uint64_t r = 0; r < 50; ++r) {
        EXPECT_EQ(code.codeword(r).count(), 40u);
        EXPECT_EQ(code.codeword(r).size(), 1200u);
    }
}

TEST(BeepCode, DeterministicPerInput) {
    const BeepCode code(1000, 30, 11);
    EXPECT_EQ(code.codeword(12345), code.codeword(12345));
    EXPECT_NE(code.codeword(12345), code.codeword(12346));
}

TEST(BeepCode, DifferentSeedsGiveDifferentCodes) {
    const BeepCode a(1000, 30, 1);
    const BeepCode b(1000, 30, 2);
    EXPECT_NE(a.codeword(5), b.codeword(5));
}

TEST(BeepCode, OnePositionsMatchCodeword) {
    const BeepCode code(800, 25, 3);
    for (std::uint64_t r = 0; r < 10; ++r) {
        EXPECT_EQ(code.one_positions(r), code.codeword(r).one_positions());
    }
}

TEST(BeepCode, RejectsBadWeight) {
    EXPECT_THROW(BeepCode(10, 11, 0), precondition_error);
    EXPECT_THROW(BeepCode(10, 0, 0), precondition_error);
}

TEST(BeepCodeAnalysis, SuperimpositionsRarelyOverIntersect) {
    // Theorem 4 event at the paper's threshold 5*delta^2*b/k = 5*a*c... for
    // (a,k,1/c): threshold 5*delta*weight/... = 5*b/(c^2 k) = 5a.
    const std::size_t a = 16;
    const std::size_t k = 8;
    const std::size_t c = 4;
    const BeepCode code = BeepCode::theorem4(a, k, c, 99);
    const std::size_t threshold = 5 * a;  // 5*b/(c^2*k)
    Rng rng(123);
    const auto stats = measure_superimposition(code, k, threshold, 300, rng);
    // Expected intersection is ~ weight/c = a = 16 << 80; violations are
    // exponentially rare — none should occur in 300 trials.
    EXPECT_EQ(stats.violation_rate, 0.0);
    EXPECT_LT(stats.mean_intersection, 2.0 * static_cast<double>(a));
}

TEST(BeepCodeAnalysis, IntersectionGrowsWithK) {
    const BeepCode code = BeepCode::theorem4(12, 16, 3, 5);
    Rng rng(7);
    const auto small = measure_superimposition(code, 2, code.weight() + 1, 100, rng);
    const auto large = measure_superimposition(code, 16, code.weight() + 1, 100, rng);
    EXPECT_LT(small.mean_intersection, large.mean_intersection);
}

TEST(DistanceCode, Lemma6Length) {
    // delta = 1/3 -> c_delta = 12 * 9 = 108.
    const DistanceCode code = DistanceCode::lemma6(10, 1.0 / 3.0, 1);
    EXPECT_EQ(code.length(), 1080u);
    EXPECT_EQ(code.message_bits(), 10u);
}

TEST(DistanceCode, EncodeDeterministicAndSized) {
    const DistanceCode code(8, 200, 3);
    Rng rng(1);
    const Bitstring m = Bitstring::random(rng, 8);
    EXPECT_EQ(code.encode(m), code.encode(m));
    EXPECT_EQ(code.encode(m).size(), 200u);
    EXPECT_THROW(code.encode(Bitstring(7)), precondition_error);
}

TEST(DistanceCode, MinDistanceMeetsLemma6Bound) {
    const std::size_t bits = 10;
    const double delta = 1.0 / 3.0;
    const DistanceCode code = DistanceCode::lemma6(bits, delta, 17);
    const auto messages = all_messages(bits);
    const std::size_t min_distance = min_pairwise_distance(code, messages);
    EXPECT_GE(min_distance, static_cast<std::size_t>(delta * static_cast<double>(code.length())));
}

TEST(DistanceCode, DictionaryDecodeExactWithoutNoise) {
    const DistanceCode code(12, 300, 21);
    Rng rng(5);
    const auto candidates = random_messages(12, 50, rng);
    for (std::size_t i = 0; i < candidates.size(); i += 7) {
        const auto decoded = code.decode(code.encode(candidates[i]), candidates);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->message, candidates[i]);
        EXPECT_EQ(decoded->distance, 0u);
        EXPECT_TRUE(decoded->unique);
    }
}

TEST(DistanceCode, DecodeToleratesNoiseBelowHalfDistance) {
    const DistanceCode code = DistanceCode::lemma6(8, 1.0 / 3.0, 31);
    const auto candidates = all_messages(8);
    Rng rng(11);
    const Bitstring truth = candidates[137];
    Bitstring received = code.encode(truth);
    // Flip 10% of positions: far less than half the 1/3 relative distance.
    received.apply_noise(rng, 0.10);
    const auto decoded = code.decode(received, candidates);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->message, truth);
}

TEST(DistanceCode, ExhaustiveMatchesDictionaryOnFullSpace) {
    const DistanceCode code(6, 128, 77);
    const auto candidates = all_messages(6);
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        Bitstring received = Bitstring::random(rng, 128);
        const auto dict = code.decode(received, candidates);
        const auto full = code.decode_exhaustive(received);
        ASSERT_TRUE(dict.has_value());
        EXPECT_EQ(dict->message, full.message);
        EXPECT_EQ(dict->distance, full.distance);
    }
}

TEST(DistanceCode, EmptyDictionaryGivesNothing) {
    const DistanceCode code(6, 64, 1);
    EXPECT_FALSE(code.decode(Bitstring(64), {}).has_value());
}

TEST(DistanceCode, NearestEntryMatchesDecodeCached) {
    // The radius-shortcut decoder must pick the same message as the full
    // decode_cached scan for noisy receptions (shortcut hits), garbage
    // receptions (fallback scans), and with gaps disabled entirely.
    const DistanceCode code(12, 300, 21);
    Rng rng(5);
    const auto messages = random_messages(12, 60, rng);
    std::vector<Bitstring> encoded;
    std::vector<std::uint32_t> entries;
    for (std::size_t i = 0; i < messages.size(); ++i) {
        encoded.push_back(code.encode(messages[i]));
        entries.push_back(static_cast<std::uint32_t>(i));
    }
    const auto gaps = code.decode_gaps(messages, encoded);
    for (std::size_t i = 0; i < messages.size(); ++i) {
        for (const double epsilon : {0.0, 0.05, 0.3, 0.5}) {
            Bitstring received = encoded[i];
            received.apply_noise(rng, epsilon);
            const auto expected = code.decode_cached(received, messages, encoded, entries);
            ASSERT_TRUE(expected.has_value());
            const std::uint32_t hint = entries[i];
            const std::uint32_t with_gaps =
                code.nearest_entry(received, messages, encoded, entries, hint, gaps);
            const std::uint32_t without_gaps =
                code.nearest_entry(received, messages, encoded, entries, hint, {});
            EXPECT_EQ(messages[with_gaps], expected->message);
            EXPECT_EQ(messages[without_gaps], expected->message);
        }
    }
}

TEST(DistanceCode, NearestEntryHandlesDuplicateMessages) {
    // Entries sharing one message share one encoding; the shortcut may
    // return either entry of the class but must decode the same message,
    // and decode_gaps must keep the class's gap usable.
    const DistanceCode code(8, 200, 33);
    Rng rng(7);
    auto messages = random_messages(8, 20, rng);
    messages.push_back(messages[3]);  // duplicate message -> duplicate encoding
    std::vector<Bitstring> encoded;
    std::vector<std::uint32_t> entries;
    for (std::size_t i = 0; i < messages.size(); ++i) {
        encoded.push_back(code.encode(messages[i]));
        entries.push_back(static_cast<std::uint32_t>(i));
    }
    const auto gaps = code.decode_gaps(messages, encoded);
    EXPECT_GT(gaps[3], 0u);
    EXPECT_EQ(gaps[3], gaps.back());
    Bitstring received = encoded[3];
    received.apply_noise(rng, 0.05);
    const auto expected = code.decode_cached(received, messages, encoded, entries);
    const std::uint32_t entry = code.nearest_entry(
        received, messages, encoded, entries, entries.back(), gaps);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(messages[entry], expected->message);
}

TEST(DistanceCode, DecodeGapsReflectPairwiseDistances) {
    const DistanceCode code(10, 160, 9);
    Rng rng(13);
    const auto messages = random_messages(10, 12, rng);
    std::vector<Bitstring> encoded;
    for (const auto& message : messages) {
        encoded.push_back(code.encode(message));
    }
    const auto gaps = code.decode_gaps(messages, encoded);
    for (std::size_t i = 0; i < encoded.size(); ++i) {
        std::size_t expected = code.length() + 1;
        for (std::size_t j = 0; j < encoded.size(); ++j) {
            if (j != i) {
                expected = std::min(expected, encoded[i].hamming_distance(encoded[j]));
            }
        }
        EXPECT_EQ(gaps[i], expected);
    }
}

TEST(DistanceCode, ExtendDecodeGapsMatchesFullScan) {
    // Splitting the pairwise scan into a cached prefix block plus the
    // extension over later entries must reproduce the full scan exactly,
    // including conflict zeroing across the split.
    const DistanceCode code(8, 200, 41);
    Rng rng(19);
    auto messages = random_messages(8, 25, rng);
    messages.push_back(messages[2]);   // duplicate across the split boundary
    std::vector<Bitstring> encoded;
    for (const auto& message : messages) {
        encoded.push_back(code.encode(message));
    }
    const auto full = code.decode_gaps(messages, encoded);
    for (const std::size_t prefix : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                                     std::size_t{25}, messages.size()}) {
        const std::span<const Bitstring> m(messages);
        const std::span<const Bitstring> e(encoded);
        const auto prefix_gaps = code.decode_gaps(m.first(prefix), e.first(prefix));
        std::vector<std::uint32_t> gaps(3, 7);  // stale contents are overwritten
        code.extend_decode_gaps_into(m, e, prefix_gaps, gaps);
        EXPECT_EQ(gaps, full) << "prefix " << prefix;
    }
}

TEST(DistanceCode, RunnerUpGapReported) {
    const DistanceCode code(10, 400, 5);
    Rng rng(9);
    const auto candidates = random_messages(10, 30, rng);
    const auto decoded = code.decode(code.encode(candidates[0]), candidates);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->distance, 0u);
    EXPECT_GT(decoded->runner_up, 100u);  // random codewords are ~200 apart
}

TEST(CombinedCode, EncodePlacesDistanceCodeword) {
    // CD(r, m): gather at C(r)'s 1-positions must recover D(m) exactly.
    const BeepCode beep(2000, 64, 3);
    const DistanceCode distance(8, 64, 4);
    const CombinedCode combined(beep, distance);
    Rng rng(2);
    const Bitstring m = Bitstring::random(rng, 8);
    const Bitstring word = combined.encode(9001, m);
    EXPECT_EQ(word.size(), 2000u);
    EXPECT_EQ(word.gather(beep.one_positions(9001)), distance.encode(m));
    // Nothing outside the beep codeword's support.
    EXPECT_EQ(word.and_not_count(beep.codeword(9001)), 0u);
}

TEST(CombinedCode, ExtractIsDecodePath) {
    const BeepCode beep(1500, 50, 6);
    const DistanceCode distance(10, 50, 7);
    const CombinedCode combined(beep, distance);
    Rng rng(8);
    const Bitstring m = Bitstring::random(rng, 10);
    const Bitstring word = combined.encode(5, m);
    EXPECT_EQ(combined.extract(5, word), distance.encode(m));
}

TEST(CombinedCode, RequiresMatchingDimensions) {
    const BeepCode beep(1000, 40, 1);
    const DistanceCode distance(8, 39, 2);
    EXPECT_THROW(CombinedCode(beep, distance), precondition_error);
}

TEST(Phase1Decoder, ThresholdFollowsLemma9) {
    const BeepCode code(1000, 100, 3);
    const Phase1Decoder noiseless(code, 0.0);
    EXPECT_DOUBLE_EQ(noiseless.threshold(), 25.0);  // w/4
    const Phase1Decoder noisy(code, 0.2);
    EXPECT_DOUBLE_EQ(noisy.threshold(), 35.0);  // (2*0.2+1)/4 * 100
}

TEST(Phase1Decoder, AcceptsContainedCodewords) {
    const BeepCode code(4000, 60, 5);
    Bitstring heard(4000);
    for (const std::uint64_t r : {1ull, 2ull, 3ull}) {
        heard |= code.codeword(r);
    }
    const Phase1Decoder decoder(code, 0.0);
    for (const std::uint64_t r : {1ull, 2ull, 3ull}) {
        EXPECT_TRUE(decoder.accepts(heard, r));
        EXPECT_EQ(decoder.missing_ones(heard, r), 0u);
    }
    // A random foreign codeword mostly misses the superimposition.
    EXPECT_FALSE(decoder.accepts(heard, 999));
}

TEST(Phase1Decoder, DecodeFiltersDictionary) {
    const BeepCode code(4000, 60, 5);
    Bitstring heard(4000);
    heard |= code.codeword(10);
    heard |= code.codeword(20);
    const Phase1Decoder decoder(code, 0.0);
    const std::vector<std::uint64_t> dictionary{10, 20, 30, 40};
    EXPECT_EQ(decoder.decode(heard, dictionary), (std::vector<std::uint64_t>{10, 20}));
}

TEST(Phase1Decoder, FailureInjectionBeyondThresholdRejects) {
    // Remove just over threshold many 1s of a member codeword: the decoder
    // must reject it (report the loss, not silently accept).
    const BeepCode code(4000, 100, 5);
    const Phase1Decoder decoder(code, 0.0);  // threshold 25
    Bitstring heard = code.codeword(42);
    const auto positions = code.one_positions(42);
    for (std::size_t i = 0; i < 25; ++i) {
        heard.set(positions[i], false);
    }
    EXPECT_FALSE(decoder.accepts(heard, 42));
    // One fewer than threshold: accepted.
    heard.set(positions[24]);
    EXPECT_TRUE(decoder.accepts(heard, 42));
}

TEST(KautzSingleton, ConstructionShape) {
    const KautzSingletonCode code(16, 4);
    EXPECT_GE(code.q(), 5u);
    EXPECT_EQ(code.length(), code.q() * code.q());
    EXPECT_EQ(code.weight(), code.q());
    // Every codeword has exactly one 1 per block.
    const Bitstring word = code.codeword(1234);
    EXPECT_EQ(word.count(), code.q());
}

TEST(KautzSingleton, DisjunctDecodingNoiseless) {
    const KautzSingletonCode code(16, 6);
    Bitstring heard(code.length());
    const std::vector<std::uint64_t> members{11, 22, 33, 44, 55, 66};
    for (const auto r : members) {
        heard |= code.codeword(r);
    }
    std::vector<std::uint64_t> dictionary = members;
    for (std::uint64_t r = 100; r < 140; ++r) {
        dictionary.push_back(r);
    }
    EXPECT_EQ(code.decode(heard, dictionary), members);
}

TEST(KautzSingleton, LengthQuadraticInK) {
    // The Theta(k^2) length growth that motivates beep codes (Section 1.4).
    const KautzSingletonCode small(20, 4);
    const KautzSingletonCode large(20, 16);
    const double ratio = static_cast<double>(large.length()) /
                         static_cast<double>(small.length());
    EXPECT_GT(ratio, 4.0);
}

TEST(KautzSingleton, NextPrime) {
    EXPECT_EQ(next_prime(2), 2u);
    EXPECT_EQ(next_prime(4), 5u);
    EXPECT_EQ(next_prime(14), 17u);
    EXPECT_EQ(next_prime(97), 97u);
    EXPECT_THROW(next_prime(1), precondition_error);
}

TEST(Analysis, RandomMessagesDistinct) {
    Rng rng(4);
    const auto messages = random_messages(16, 100, rng);
    EXPECT_EQ(messages.size(), 100u);
    for (std::size_t i = 1; i < messages.size(); ++i) {
        EXPECT_NE(messages[0], messages[i]);
    }
}

TEST(Analysis, AllMessagesEnumerates) {
    const auto messages = all_messages(4);
    EXPECT_EQ(messages.size(), 16u);
    EXPECT_THROW(all_messages(30), precondition_error);
}

TEST(Analysis, FractionBelowDistanceZeroForGoodCode) {
    const DistanceCode code = DistanceCode::lemma6(8, 1.0 / 3.0, 3);
    const auto messages = all_messages(8);
    EXPECT_EQ(fraction_below_distance(code, messages, code.length() / 3), 0.0);
}

}  // namespace
}  // namespace nb
