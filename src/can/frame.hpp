#pragma once
// CAN frame value type (ISO 11898, data and remote frames, base and
// extended identifier formats).

#include <array>
#include <cstdint>
#include <ostream>
#include <span>

#include "can/types.hpp"

namespace canely::can {

/// Maximum payload of a classic CAN data frame.
inline constexpr std::size_t kMaxData = 8;

/// Identifier format.
enum class IdFormat : std::uint8_t {
  kBase,      ///< 11-bit identifier (CAN 2.0A)
  kExtended,  ///< 29-bit identifier (CAN 2.0B)
};

/// A CAN data or remote frame.
///
/// Remote frames carry no payload; their DLC still encodes the length of
/// the data frame they solicit.  The paper's protocol suite encapsulates
/// life-signs, failure-signs, JOIN and LEAVE requests in remote frames
/// (saving the data field), and RHV signals in data frames.
// canely-lint: allow(wire-layout) — frames are bit-serialized field by field (bitstream.cpp); in-memory padding never reaches the wire
struct Frame {
  std::uint32_t id{0};          ///< 11-bit (base) or 29-bit (extended) identifier
  IdFormat format{IdFormat::kBase};
  bool remote{false};           ///< true => remote frame (RTR bit recessive)
  std::uint8_t dlc{0};          ///< data length code, 0..8
  std::array<std::uint8_t, kMaxData> data{};

  [[nodiscard]] static Frame make_data(std::uint32_t id, std::span<const std::uint8_t> payload,
                                        IdFormat format = IdFormat::kBase);
  [[nodiscard]] static Frame make_remote(std::uint32_t id, std::uint8_t dlc = 0,
                                          IdFormat format = IdFormat::kBase);

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return {data.data(), static_cast<std::size_t>(dlc > 8 ? 8 : dlc)};
  }

  /// Arbitration key: numerically smaller == higher bus priority.
  ///
  /// Encodes the ISO 11898 arbitration rules: identifiers are compared bit
  /// by bit MSB-first; a base frame wins over an extended frame with the
  /// same leading 11 bits (SRR/IDE recessive in the extended frame); a data
  /// frame wins over a remote frame with the same identifier (RTR
  /// recessive in the remote frame).
  [[nodiscard]] std::uint64_t arbitration_key() const;

  /// Two frames are wire-identical (would merge on the bus) iff every bit
  /// of their serialization matches.
  friend bool operator==(const Frame&, const Frame&);

  friend std::ostream& operator<<(std::ostream& os, const Frame& f);
};
static_assert(sizeof(Frame) == 16, "a frame is its serialized fields only");

}  // namespace canely::can
