#pragma once
// Bit-accurate CAN frame serialization: CRC-15, bit stuffing, and exact
// on-wire frame lengths.
//
// Bandwidth numbers in the paper's Figure 10 and the inaccessibility
// bounds of Figure 11 are expressed in bit-times; the reproduction earns
// its numbers by serializing every frame exactly as ISO 11898 specifies
// (SOF, arbitration field, control field, data, CRC) and applying real
// bit stuffing, rather than using the usual "47 + 8·dlc + worst-case"
// approximations.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "can/frame.hpp"

namespace canely::can {

/// Fixed field widths (ISO 11898-1).
inline constexpr std::size_t kCrcDelimiterBits = 1;
inline constexpr std::size_t kAckSlotBits = 1;
inline constexpr std::size_t kAckDelimiterBits = 1;
inline constexpr std::size_t kEofBits = 7;
/// Unstuffed tail after the CRC sequence: delimiter + ACK + EOF.
inline constexpr std::size_t kFrameTailBits =
    kCrcDelimiterBits + kAckSlotBits + kAckDelimiterBits + kEofBits;  // 10
/// Interframe space between consecutive frames.
inline constexpr std::size_t kIntermissionBits = 3;

/// Error signaling costs (used by the bus model and by the
/// inaccessibility analysis of Figure 11).
inline constexpr std::size_t kErrorFlagBits = 6;       ///< one error flag
inline constexpr std::size_t kErrorFlagMaxBits = 12;   ///< superposed flags
inline constexpr std::size_t kErrorDelimiterBits = 8;
inline constexpr std::size_t kOverloadFlagBits = 6;
inline constexpr std::size_t kOverloadDelimiterBits = 8;
inline constexpr std::size_t kSuspendTransmissionBits = 8;  ///< error-passive

/// Longest possible unstuffed SOF..CRC sequence: an extended data frame
/// with 8 data bytes (1 SOF + 32 arbitration/control + 64 data + 15 CRC
/// + 6 more arbitration bits of the extended format = 118).  Sizes the
/// stack buffers of the allocation-free serialization paths below.
inline constexpr std::size_t kMaxRawBits = 118;
/// Same, after worst-case bit stuffing (one stuff bit per 4 after the
/// first 5): 118 + (118 - 1) / 4 = 147.
inline constexpr std::size_t kMaxStuffedBits =
    kMaxRawBits + (kMaxRawBits - 1) / 4;

/// Serialize the stuffable portion of a frame (SOF through the 15 CRC
/// bits), one bit per byte (0 = dominant, 1 = recessive), *before*
/// stuffing.  The CRC is computed and appended by this function.
[[nodiscard]] std::vector<std::uint8_t> raw_bits(const Frame& frame);

/// Allocation-free core of raw_bits(): serialize into `out`, which must
/// have room for kMaxRawBits entries.  Returns the number of bits written.
std::size_t raw_bits_into(const Frame& frame, std::uint8_t* out);

/// CRC-15-CAN (x^15+x^14+x^10+x^8+x^7+x^4+x^3+1) over a bit sequence.
/// Word-parallel: gathers eight byte-per-bit input bytes at a time and
/// steps a 256-entry table once per gathered byte.
[[nodiscard]] std::uint16_t crc15(std::span<const std::uint8_t> bits);

/// Bit-at-a-time reference implementations of the word-parallel routines
/// below.  Slow and obviously correct; retained as the oracle for the
/// property suite (tests/test_bitstream_parallel.cpp) and for inputs
/// longer than the stack packing buffers.
[[nodiscard]] std::uint16_t crc15_reference(std::span<const std::uint8_t> bits);
std::size_t stuff_into_reference(std::span<const std::uint8_t> bits,
                                 std::uint8_t* out);
[[nodiscard]] std::size_t count_stuff_bits_reference(
    std::span<const std::uint8_t> bits);
[[nodiscard]] std::optional<std::vector<std::uint8_t>> destuff_reference(
    std::span<const std::uint8_t> bits);

/// Apply ISO 11898 bit stuffing (a complement bit after every run of five
/// equal bits) to a bit sequence.  stuff_into/count_stuff_bits/destuff
/// are word-parallel: the input is packed 64 bits to a word and processed
/// run by run (countl_zero finds each run in one step) instead of bit by
/// bit.
[[nodiscard]] std::vector<std::uint8_t> stuff(std::span<const std::uint8_t> bits);

/// Allocation-free core of stuff(): write the stuffed sequence into
/// `out`, which must have room for `bits.size() + (bits.size() - 1) / 4`
/// entries (kMaxStuffedBits when the input is a frame serialization).
/// Returns the number of bits written.
std::size_t stuff_into(std::span<const std::uint8_t> bits, std::uint8_t* out);

/// Number of stuff bits that stuffing would insert.
[[nodiscard]] std::size_t count_stuff_bits(std::span<const std::uint8_t> bits);

/// Remove stuff bits.  Returns nullopt on a stuffing violation (six equal
/// consecutive bits — what a receiver flags as a stuff error).
[[nodiscard]] std::optional<std::vector<std::uint8_t>> destuff(
    std::span<const std::uint8_t> bits);

/// Parse an unstuffed SOF..CRC bit sequence (as produced by raw_bits)
/// back into a Frame, verifying the CRC.  Returns nullopt on any format
/// or CRC violation — the receiver-side error detection of MCAN2.
[[nodiscard]] std::optional<Frame> decode_raw_bits(
    std::span<const std::uint8_t> bits);

/// Exact number of bits this frame occupies on the wire, from SOF through
/// the last EOF bit (intermission NOT included).  Memoized in a
/// per-thread table keyed on every serialized field: the first call for a
/// frame content serializes and stuffs, repeat calls — on any copy of an
/// equal frame — are a hash and a couple of compares.
[[nodiscard]] std::size_t frame_bits_on_wire(const Frame& frame);

/// First stuffed wire bit at which two frames sharing an arbitration key
/// diverge — the instant both colliding transmitters detect the bit
/// error (one of them reads back a dominant bit it did not send, or vice
/// versa).  Divergence is guaranteed for unequal frames: they differ in
/// the RTR bit, the control field, the data field, or the CRC.
/// Allocation-free (stack buffers only).
[[nodiscard]] std::int32_t first_divergent_wire_bit(const Frame& a,
                                                    const Frame& b);

/// Worst-case on-wire length (maximum stuffing) for a frame with `dlc`
/// data bytes — the classic bound used in response-time analysis
/// (Tindell & Burns): stuffable length S = 34 + 8·dlc (base format) or
/// 54 + 8·dlc (extended), worst stuffing floor((S-1)/4), plus the
/// 10-bit tail.
[[nodiscard]] constexpr std::size_t max_frame_bits_on_wire(std::size_t dlc,
                                                           IdFormat format,
                                                           bool remote = false) {
  const std::size_t data_bits = remote ? 0 : 8 * dlc;
  const std::size_t stuffable =
      (format == IdFormat::kBase ? 34 : 54) + data_bits;
  return stuffable + (stuffable - 1) / 4 + kFrameTailBits;
}

}  // namespace canely::can
