// Property suite for the word-parallel bitstream paths (DESIGN.md §8):
// every packed-word routine (crc15, stuff_into, count_stuff_bits,
// destuff, and the packed serialization inside frame_bits_on_wire) is
// checked against its retained bit-at-a-time *_reference oracle over
// random frames (all DLCs, both formats, data and remote), adversarial
// run-structured sequences, and exhaustive byte-gather patterns.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "can/bitstream.hpp"
#include "can/frame.hpp"
#include "sim/rng.hpp"

namespace canely::can {
namespace {

Frame random_frame(sim::Rng& rng) {
  Frame f;
  f.format = rng.below(2) == 0 ? IdFormat::kBase : IdFormat::kExtended;
  f.id = static_cast<std::uint32_t>(
      rng.below(f.format == IdFormat::kBase ? 0x800 : 0x2000'0000));
  f.remote = rng.below(4) == 0;
  f.dlc = static_cast<std::uint8_t>(rng.below(9));  // all DLCs 0..8
  if (!f.remote) {
    for (std::size_t i = 0; i < f.dlc; ++i) {
      // Bias toward run-heavy payloads (0x00/0xFF) so stuffing edge
      // cases — runs spanning field boundaries, stuff-after-stuff — show
      // up far more often than under uniform bytes.
      const auto roll = rng.below(4);
      f.data[i] = roll == 0   ? 0x00
                  : roll == 1 ? 0xFF
                              : static_cast<std::uint8_t>(rng.below(256));
    }
  }
  return f;
}

/// Random bit sequence with geometric-ish run lengths: adversarial for
/// the run-based scanners (lots of runs straddling 5, 10, word edges).
std::vector<std::uint8_t> random_runs(sim::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> bits;
  const std::size_t target = rng.below(max_len + 1);
  std::uint8_t v = static_cast<std::uint8_t>(rng.below(2));
  while (bits.size() < target) {
    const std::size_t run = 1 + rng.below(7);  // 1..7: crosses the 5-limit
    for (std::size_t i = 0; i < run && bits.size() < target; ++i) {
      bits.push_back(v);
    }
    v ^= 1;
  }
  return bits;
}

TEST(BitstreamParallel, Crc15MatchesReferenceOnRandomSequences) {
  sim::Rng rng{2026};
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bits(rng.below(200));
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(2));
    ASSERT_EQ(crc15(bits), crc15_reference(bits)) << "len " << bits.size();
  }
}

TEST(BitstreamParallel, Crc15GatherExhaustiveOverBytePatterns) {
  // Every 8-bit pattern, at every alignment 0..7 relative to the start:
  // pins the multiply-gather (bit order, carry freedom) and the byte
  // table step against the bit-at-a-time register.
  for (unsigned pattern = 0; pattern < 256; ++pattern) {
    for (std::size_t lead = 0; lead < 8; ++lead) {
      std::vector<std::uint8_t> bits(lead, 1);
      for (int i = 7; i >= 0; --i) {
        bits.push_back(static_cast<std::uint8_t>((pattern >> i) & 1));
      }
      ASSERT_EQ(crc15(bits), crc15_reference(bits))
          << "pattern " << pattern << " lead " << lead;
    }
  }
}

TEST(BitstreamParallel, Crc15FixedVectors) {
  // Known-answer vectors, precomputed with the ISO 11898-1 bit-serial
  // register (poly 0x4599): guards table generation itself — a reference
  // bug would slip through pure cross-checking.
  std::vector<std::uint8_t> bits;
  for (const std::uint8_t byte : {0x43, 0x41, 0x4E}) {  // "CAN", MSB-first
    for (int i = 7; i >= 0; --i) {
      bits.push_back(static_cast<std::uint8_t>((byte >> i) & 1));
    }
  }
  EXPECT_EQ(crc15(bits), 0x1B9E);
  EXPECT_EQ(crc15_reference(bits), 0x1B9E);

  // The 19-bit header of a base data frame id=0x555, dlc=8.
  const std::uint32_t hdr = (0x555U << 7) | 8U;
  std::vector<std::uint8_t> hdr_bits;
  for (int i = 18; i >= 0; --i) {
    hdr_bits.push_back(static_cast<std::uint8_t>((hdr >> i) & 1));
  }
  EXPECT_EQ(crc15(hdr_bits), 0x134B);
}

TEST(BitstreamParallel, StuffingMatchesReferenceOnAdversarialRuns) {
  sim::Rng rng{7};
  for (int iter = 0; iter < 4000; ++iter) {
    // Up to 600 bits: crosses the 512-bit packing cap, so the fallback
    // path runs under the same property.
    const auto bits = random_runs(rng, 600);
    std::vector<std::uint8_t> got(bits.size() + bits.size() / 4 + 1);
    std::vector<std::uint8_t> want(bits.size() + bits.size() / 4 + 1);
    got.resize(stuff_into(bits, got.data()));
    want.resize(stuff_into_reference(bits, want.data()));
    ASSERT_EQ(got, want) << "iter " << iter << " len " << bits.size();
    ASSERT_EQ(count_stuff_bits(bits), count_stuff_bits_reference(bits));
    ASSERT_EQ(count_stuff_bits(bits), got.size() - bits.size());
  }
}

TEST(BitstreamParallel, DestuffInvertsStuffAndMatchesReference) {
  sim::Rng rng{99};
  for (int iter = 0; iter < 4000; ++iter) {
    const auto bits = random_runs(rng, 600);
    const auto stuffed = stuff(bits);
    const auto back = destuff(stuffed);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, bits) << "iter " << iter;

    // Raw (possibly invalid) streams: the word-parallel destuffer and
    // the reference must agree on both acceptance and output.
    ASSERT_EQ(destuff(bits), destuff_reference(bits)) << "iter " << iter;
  }
  // Six equal bits is a stuff error in both implementations.
  const std::vector<std::uint8_t> six(6, 1);
  EXPECT_FALSE(destuff(six).has_value());
  EXPECT_FALSE(destuff_reference(six).has_value());
}

TEST(BitstreamParallel, PackedSerializationMatchesRawBitsOn10kFrames) {
  sim::Rng rng{424242};
  for (int iter = 0; iter < 10000; ++iter) {
    const Frame f = random_frame(rng);

    // Oracle: byte-per-bit serialization + reference CRC + reference
    // stuff count.
    std::uint8_t raw[kMaxRawBits];
    const std::size_t n = raw_bits_into(f, raw);
    ASSERT_EQ(crc15({raw, n - 15}), crc15_reference({raw, n - 15}));
    const std::size_t want =
        n + count_stuff_bits_reference({raw, n}) + kFrameTailBits;

    // frame_bits_on_wire runs the fully packed path on a memo miss
    // (random frames almost never repeat in the per-thread table).
    const Frame& fresh = f;
    ASSERT_EQ(frame_bits_on_wire(fresh), want)
        << "iter " << iter << " id " << f.id << " dlc " << int{f.dlc}
        << " remote " << f.remote
        << " ext " << (f.format == IdFormat::kExtended);
    // And the memo returns the same answer.
    ASSERT_EQ(frame_bits_on_wire(fresh), want);
  }
}

TEST(BitstreamParallel, PackedSerializationCoversEveryDlcAndFormat) {
  // Deterministic corner sweep: every DLC x format x remote with
  // all-zero, all-one and alternating payloads (maximum / minimum
  // stuffing density).
  for (const auto format : {IdFormat::kBase, IdFormat::kExtended}) {
    for (unsigned dlc = 0; dlc <= 8; ++dlc) {
      for (const std::uint8_t fill : {0x00, 0xFF, 0xAA}) {
        for (const bool remote : {false, true}) {
          Frame f;
          f.format = format;
          f.id = format == IdFormat::kBase ? 0x2AA : 0x15555555;
          f.remote = remote;
          f.dlc = static_cast<std::uint8_t>(dlc);
          if (!remote) f.data.fill(fill);
          std::uint8_t raw[kMaxRawBits];
          const std::size_t n = raw_bits_into(f, raw);
          const std::size_t want =
              n + count_stuff_bits_reference({raw, n}) + kFrameTailBits;
          EXPECT_EQ(frame_bits_on_wire(f), want)
              << "dlc " << dlc << " fill " << int{fill} << " remote "
              << remote;
        }
      }
    }
  }
}

}  // namespace
}  // namespace canely::can
