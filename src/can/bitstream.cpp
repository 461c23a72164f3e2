#include "can/bitstream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(CANELY_BITSTREAM_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace canely::can {
namespace {

/// Sequential bit writer over a caller-provided buffer — the
/// allocation-free serialization core shares one code path with the
/// vector-returning convenience wrappers.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : out_{out} {}
  void bit(bool recessive) { out_[n_++] = recessive ? 1 : 0; }
  void field(std::uint32_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
      bit((value >> i) & 1);
    }
  }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  std::uint8_t* out_;
  std::size_t n_{0};
};

// ---------------------------------------------------------------------------
// Word-parallel machinery.
//
// Bit sequences are packed MSB-first into 64-bit words: sequence bit i
// lives in word i>>6 at bit position 63-(i&63), so "earlier on the wire"
// is always "more significant" and countl_zero on a shifted word yields
// the length of the run at the cursor in one instruction.
// ---------------------------------------------------------------------------

constexpr std::uint16_t kCrcPoly = 0x4599;

constexpr std::uint16_t crc15_bit(std::uint16_t crc, unsigned bit) {
  const unsigned fb = ((crc >> 14) ^ bit) & 1;
  crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
  return fb != 0 ? static_cast<std::uint16_t>(crc ^ kCrcPoly) : crc;
}

/// T[x] = register state after clocking 8 zero input bits from state
/// (x << 7).  The per-bit step is linear over GF(2), so for the full
/// 15-bit register D = crc ^ (byte << 7) (input byte folded into the top
/// 8 bits) the 8-step image splits as
///   F(D) = ((D & 0x7F) << 8) ^ T[D >> 7]
/// — the low 7 bits just shift up without ever reaching the feedback tap.
constexpr std::array<std::uint16_t, 256> make_crc15_table() {
  std::array<std::uint16_t, 256> t{};
  for (unsigned x = 0; x < 256; ++x) {
    auto crc = static_cast<std::uint16_t>(x << 7);
    for (int i = 0; i < 8; ++i) crc = crc15_bit(crc, 0);
    t[x] = crc;
  }
  return t;
}

constexpr std::array<std::uint16_t, 256> kCrc15Table = make_crc15_table();

constexpr std::uint16_t crc15_byte(std::uint16_t crc, std::uint8_t byte) {
  return static_cast<std::uint16_t>(
      ((crc << 8) & 0x7FFF) ^ kCrc15Table[((crc >> 7) & 0xFF) ^ byte]);
}

/// Gather 8 byte-per-bit bytes (little-endian load: input bit j at word
/// bit 8j) into one MSB-first byte.  The multiply places bit 8j at
/// position 8j + (63 - 9j) = 63 - j; every other partial product lands
/// strictly below bit 55 with at most one term per position, so no carry
/// can reach the top byte.
inline std::uint8_t gather8(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof x);
  return static_cast<std::uint8_t>(
      ((x & 0x0101010101010101ULL) * 0x8040201008040201ULL) >> 56);
}

#if defined(CANELY_BITSTREAM_SIMD) && defined(__AVX2__)
/// Pack 32 byte-per-bit bytes into one MSB-first 32-bit group: reverse
/// the vector (movemask emits byte 0 at result bit 0; the wire wants it
/// at bit 31), compare against zero, take the sign mask.
inline std::uint32_t pack32_simd(const std::uint8_t* p) {
  const __m256i rev = _mm256_setr_epi8(  //
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,  //
      15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  x = _mm256_shuffle_epi8(x, rev);          // reverse within each lane
  x = _mm256_permute2x128_si256(x, x, 1);   // swap lanes: full reverse
  const __m256i nz = _mm256_cmpgt_epi8(x, _mm256_setzero_si256());
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(nz));
}
#endif

/// Stack packing capacity for the word-parallel public entry points.
/// Frames need 2 words (kMaxRawBits = 118); property tests feed longer
/// adversarial sequences; anything beyond 512 bits falls back to the
/// bit-at-a-time reference.
constexpr std::size_t kPackWords = 8;
constexpr std::size_t kPackCapBits = kPackWords * 64;

/// Pack a byte-per-bit sequence into MSB-first words (zeroing the words
/// it touches).  Caller guarantees bits.size() <= 64 * word capacity.
void pack_bits(std::span<const std::uint8_t> bits, std::uint64_t* w) {
  const std::size_t n = bits.size();
  if (n == 0) return;
  std::memset(w, 0, ((n + 63) >> 6) * sizeof(std::uint64_t));
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
#if defined(CANELY_BITSTREAM_SIMD) && defined(__AVX2__)
    for (; i + 32 <= n; i += 32) {
      w[i >> 6] |= static_cast<std::uint64_t>(pack32_simd(bits.data() + i))
                   << (32 - (i & 63));
    }
#endif
    for (; i + 8 <= n; i += 8) {
      w[i >> 6] |= static_cast<std::uint64_t>(gather8(bits.data() + i))
                   << (56 - (i & 63));
    }
  }
  for (; i < n; ++i) {
    w[i >> 6] |= static_cast<std::uint64_t>(bits[i] & 1) << (63 - (i & 63));
  }
}

/// Iterate the maximal runs of equal bits in a packed sequence.  Each
/// next() finds one run with countl_zero per touched word instead of a
/// per-bit loop; successive runs always alternate in value.
struct RunWalker {
  const std::uint64_t* w;
  std::size_t n;
  std::size_t pos{0};

  bool next(unsigned& v, std::size_t& len) {
    if (pos >= n) return false;
    v = static_cast<unsigned>((w[pos >> 6] >> (63 - (pos & 63))) & 1);
    len = 0;
    while (pos < n) {
      std::uint64_t t = w[pos >> 6] << (pos & 63);
      if (v != 0) t = ~t;  // run bits become leading zeros either way
      const std::size_t avail = std::min<std::size_t>(64 - (pos & 63), n - pos);
      const auto l =
          std::min<std::size_t>(static_cast<unsigned>(std::countl_zero(t)),
                                avail);
      len += l;
      pos += l;
      if (l < avail) return true;  // run ended inside this word
    }
    return true;  // run ran to end of sequence
  }
};

/// CRC-15 over a packed sequence: one table step per whole byte, bit
/// steps for the tail.
std::uint16_t crc15_packed(const std::uint64_t* w, std::size_t n) {
  std::uint16_t crc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const auto byte = static_cast<std::uint8_t>(w[i >> 6] >> (56 - (i & 63)));
    crc = crc15_byte(crc, byte);
  }
  for (; i < n; ++i) {
    crc = crc15_bit(
        crc, static_cast<unsigned>((w[i >> 6] >> (63 - (i & 63))) & 1));
  }
  return crc;
}

/// Stuff-bit count over a packed sequence, bit-parallel.
///
/// An equal-run of e bits inserts a stuff at count 5 and then after
/// every 5 more (the inserted complement restarts the counter): in
/// isolation, 1 + (e-5)/5 stuffs.  Runs with e >= 5 are found without
/// scanning: d_i = (bit_i != bit_{i-1}) turns equal-runs into zero-runs
/// of d, and m = z & z<<1 & z<<2 & z<<3 (z = ~d, shifts word-carried)
/// marks exactly the positions heading 4+ consecutive z-ones — a run of
/// e equal bits yields a block of L = e-4 contiguous marks, disjoint
/// from every other run's block, contributing 1 + (L-1)/5 stuffs.
///
/// Runs are *not* quite independent: when a run's count ends exactly on
/// a stuff (effective length ≡ 0 mod 5), the inserted complement is the
/// first bit of the next run's value, crediting it with one extra bit.
/// That credit adds a stuff — and re-arms itself — exactly when the
/// next run's length ≡ 4 (mod 5); a credited run never starts a fresh
/// chain of its own (its remainder is shifted by one).  The chain walk
/// below patches this sparse interaction; typical CAN payloads leave m
/// almost empty, so the whole count touches a handful of mark blocks
/// instead of every bit or every run.
std::size_t count_stuff_bits_packed(const std::uint64_t* w, std::size_t n) {
  if (n < 5) return 0;
  const std::size_t words = (n + 63) >> 6;
  std::uint64_t z[kPackWords + 1];
  for (std::size_t k = 0; k < words; ++k) {
    const std::uint64_t prev = (w[k] >> 1) | (k > 0 ? w[k - 1] << 63 : 0);
    std::uint64_t d = w[k] ^ prev;
    if (k == 0) d |= 1ULL << 63;  // the first bit always starts a run
    z[k] = ~d;
  }
  // Bits past n-1 are garbage: force a run break there.
  if ((n & 63) != 0) z[words - 1] &= ~((1ULL << (64 - (n & 63))) - 1);
  z[words] = 0;

  // Consecutive z-ones from bit index i: the remaining length of the
  // equal-run whose first bit sits just before i.
  const auto ones_from = [&](std::size_t i) {
    std::size_t c = 0;
    while (i < n) {
      const std::uint64_t t = z[i >> 6] << (i & 63);
      const std::size_t avail = std::min<std::size_t>(64 - (i & 63), n - i);
      const auto o =
          std::min<std::size_t>(static_cast<unsigned>(std::countl_one(t)),
                                avail);
      c += o;
      i += o;
      if (o < avail) break;
    }
    return c;
  };

  std::size_t stuffed = 0;
  std::size_t skip_until = 0;  // chain-credited region: no fresh chains
  // A mark block of length L starting at index s covers the run of bits
  // s-1 .. s+L+2 (e = L+4); its base contribution is 1 + (L-1)/5.
  const auto flush_block = [&](std::size_t s, std::size_t len) {
    stuffed += 1 + (len - 1) / 5;
    if (s < skip_until || len % 5 != 1) return;  // e % 5 != 0, or credited
    std::size_t q = s + len + 3;  // first bit of the following run
    while (q < n) {
      const std::size_t rl = 1 + ones_from(q + 1);
      if (rl % 5 != 4) {
        skip_until = q + rl;  // credited but chain-breaking run
        return;
      }
      ++stuffed;  // credit completes a group of 5; chain re-arms
      q += rl;
    }
    skip_until = n;
  };

  std::size_t run = 0;  // mark-block length carried across a word edge
  std::size_t run_start = 0;
  for (std::size_t k = 0; k < words; ++k) {
    const std::uint64_t mk = z[k]                            //
                             & ((z[k] << 1) | (z[k + 1] >> 63))
                             & ((z[k] << 2) | (z[k + 1] >> 62))
                             & ((z[k] << 3) | (z[k + 1] >> 61));
    unsigned pos = 0;
    while (pos < 64) {
      std::uint64_t t = mk << pos;
      if (run == 0) {
        if (t == 0) break;
        pos += static_cast<unsigned>(std::countl_zero(t));
        t = mk << pos;
        run_start = k * 64 + pos;
      }
      const auto ones = static_cast<unsigned>(std::countl_one(t));
      run += ones;
      pos += ones;
      if (pos < 64) {  // block ended inside this word
        flush_block(run_start, run);
        run = 0;
      }
    }
  }
  if (run > 0) flush_block(run_start, run);
  return stuffed;
}

/// Word-packed serialization of the stuffable portion (SOF..CRC),
/// mirroring raw_bits_into bit for bit: the fixed header collapses to a
/// single field insert, data bytes to one more, and the CRC runs
/// byte-at-a-time over the packed words.  `w` must hold 2 words.
std::size_t raw_bits_packed(const Frame& frame, std::uint64_t* w) {
  w[0] = 0;
  w[1] = 0;
  std::size_t n = 0;
  const auto field = [&](std::uint64_t value, unsigned width) {
    const std::size_t word = n >> 6;
    const auto off = static_cast<unsigned>(n & 63);
    n += width;
    if (off + width <= 64) {
      w[word] |= value << (64 - off - width);
    } else {
      const unsigned spill = off + width - 64;
      w[word] |= value >> spill;
      w[word + 1] |= value << (64 - spill);
    }
  };
  if (frame.format == IdFormat::kBase) {
    // SOF(0) id:11 RTR IDE(0) r0(0) DLC:4 — one 19-bit insert.
    field((static_cast<std::uint64_t>(frame.id & 0x7FF) << 7) |
              (frame.remote ? 1ULL << 6 : 0) | (frame.dlc & 0xFU),
          19);
  } else {
    // SOF(0) id>>18:11 SRR(1) IDE(1) id&0x3FFFF:18 RTR r1(0) r0(0) DLC:4
    // — one 39-bit insert.
    field((static_cast<std::uint64_t>((frame.id >> 18) & 0x7FF) << 27) |
              (3ULL << 25) |
              (static_cast<std::uint64_t>(frame.id & 0x3FFFF) << 7) |
              (frame.remote ? 1ULL << 6 : 0) | (frame.dlc & 0xFU),
          39);
  }
  if (!frame.remote && frame.dlc > 0) {
    const unsigned nd = std::min<unsigned>(frame.dlc, kMaxData);
    static_assert(sizeof(frame.data) == sizeof(std::uint64_t));
    std::uint64_t data;
    std::memcpy(&data, frame.data.data(), sizeof data);
    if constexpr (std::endian::native == std::endian::little) {
      data = __builtin_bswap64(data);  // data[0] transmits first (MSB)
    }
    field(data >> (64 - 8 * nd), 8 * nd);
  }
  field(crc15_packed(w, n), 15);
  return n;
}

}  // namespace

std::uint16_t crc15(std::span<const std::uint8_t> bits) {
  std::uint16_t crc = 0;
  std::size_t i = 0;
  const std::size_t n = bits.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= n; i += 8) {
      crc = crc15_byte(crc, gather8(bits.data() + i));
    }
  }
  for (; i < n; ++i) {
    crc = crc15_bit(crc, bits[i] & 1U);
  }
  return crc;
}

std::uint16_t crc15_reference(std::span<const std::uint8_t> bits) {
  // ISO 11898-1 CRC: polynomial 0x4599, 15-bit register, no reflection.
  std::uint16_t crc = 0;
  for (std::uint8_t b : bits) {
    const std::uint16_t crc_next =
        static_cast<std::uint16_t>((b & 1) ^ ((crc >> 14) & 1));
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    if (crc_next) crc ^= 0x4599;
  }
  return crc;
}

// canely-lint: hot-path
std::size_t raw_bits_into(const Frame& frame, std::uint8_t* out) {
  BitWriter w{out};
  w.bit(false);  // SOF (dominant)
  if (frame.format == IdFormat::kBase) {
    w.field(frame.id & 0x7FF, 11);  // identifier
    w.bit(frame.remote);            // RTR
    w.bit(false);                   // IDE (dominant = base)
    w.bit(false);                   // r0
  } else {
    w.field((frame.id >> 18) & 0x7FF, 11);  // base identifier
    w.bit(true);                            // SRR (recessive)
    w.bit(true);                            // IDE (recessive = ext)
    w.field(frame.id & 0x3FFFF, 18);        // identifier extension
    w.bit(frame.remote);                    // RTR
    w.bit(false);                           // r1
    w.bit(false);                           // r0
  }
  w.field(frame.dlc & 0xF, 4);  // DLC
  if (!frame.remote) {
    for (std::size_t i = 0; i < frame.dlc; ++i) {
      w.field(frame.data[i], 8);
    }
  }
  const std::uint16_t crc = crc15({out, w.size()});
  w.field(crc, 15);
  return w.size();
}

std::vector<std::uint8_t> raw_bits(const Frame& frame) {
  std::vector<std::uint8_t> bits(kMaxRawBits);
  bits.resize(raw_bits_into(frame, bits.data()));
  return bits;
}

// canely-lint: hot-path
std::size_t stuff_into(std::span<const std::uint8_t> bits, std::uint8_t* out) {
  if (bits.size() > kPackCapBits) return stuff_into_reference(bits, out);
  std::uint64_t w[kPackWords];
  pack_bits(bits, w);
  std::size_t written = 0;
  RunWalker rw{w, bits.size()};
  unsigned v = 0;
  std::size_t len = 0;
  int last = -1;
  std::size_t run = 0;
  while (rw.next(v, len)) {
    const std::size_t k = static_cast<int>(v) == last ? run : 0;
    if (k + len < 5) {
      std::memset(out + written, static_cast<int>(v), len);
      written += len;
      last = static_cast<int>(v);
      run = k + len;
      continue;
    }
    const std::uint8_t comp = v != 0 ? 0 : 1;
    const std::size_t first = 5 - k;  // run bits before the first stuff
    std::memset(out + written, static_cast<int>(v), first);
    written += first;
    out[written++] = comp;
    std::size_t rem = len - first;
    while (rem >= 5) {
      std::memset(out + written, static_cast<int>(v), 5);
      written += 5;
      out[written++] = comp;
      rem -= 5;
    }
    std::memset(out + written, static_cast<int>(v), rem);
    written += rem;
    if (rem > 0) {
      last = static_cast<int>(v);
      run = rem;
    } else {
      last = comp;
      run = 1;
    }
  }
  return written;
}

std::size_t stuff_into_reference(std::span<const std::uint8_t> bits,
                                 std::uint8_t* out) {
  std::size_t n = 0;
  int run = 0;
  int last = -1;
  for (std::uint8_t b : bits) {
    out[n++] = b;
    if (b == last) {
      ++run;
    } else {
      last = b;
      run = 1;
    }
    if (run == 5) {
      const std::uint8_t complement = b ? 0 : 1;
      out[n++] = complement;
      last = complement;
      run = 1;
    }
  }
  return n;
}

std::vector<std::uint8_t> stuff(std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out(bits.size() + bits.size() / 4 + 1);
  out.resize(stuff_into(bits, out.data()));
  return out;
}

// canely-lint: hot-path
std::size_t count_stuff_bits(std::span<const std::uint8_t> bits) {
  if (bits.size() > kPackCapBits) return count_stuff_bits_reference(bits);
  std::uint64_t w[kPackWords];
  pack_bits(bits, w);
  return count_stuff_bits_packed(w, bits.size());
}

std::size_t count_stuff_bits_reference(std::span<const std::uint8_t> bits) {
  std::size_t stuffed = 0;
  int run = 0;
  int last = -1;
  for (std::uint8_t b : bits) {
    if (b == last) {
      ++run;
    } else {
      last = b;
      run = 1;
    }
    if (run == 5) {
      ++stuffed;
      last = b ? 0 : 1;  // the inserted complement starts a new run
      run = 1;
    }
  }
  return stuffed;
}

namespace {

/// Wire-length memo entry.  `key` layout: bit 63 = valid, bits 35..42 =
/// cached on-wire bit count (max 147 < 256), bits 0..34 = every field
/// that feeds serialization (id, format, remote, dlc); `data` holds the
/// payload bytes.  A lookup hits only when both match the queried
/// frame's fields, so the memo can never return another frame's count.
struct WireMemo {
  std::uint64_t key{0};
  std::uint64_t data{0};
};
constexpr std::uint64_t kMemoBitsMask = 0xFFULL << 35;

constexpr std::uint64_t memo_key(const Frame& f, std::size_t wire_bits) {
  return (1ULL << 63) | (static_cast<std::uint64_t>(wire_bits & 0xFF) << 35) |
         (static_cast<std::uint64_t>(f.dlc & 0xF) << 31) |
         (static_cast<std::uint64_t>(f.remote ? 1 : 0) << 30) |
         (static_cast<std::uint64_t>(f.format == IdFormat::kExtended ? 1 : 0)
          << 29) |
         (f.id & 0x1FFF'FFFF);
}

/// Direct-mapped, per thread (no sharing, no locks).  A simulation keeps
/// a few hundred distinct frame contents in rotation (identifiers are
/// protocol mids; payloads are membership vectors), while the frames
/// themselves are fresh copies in every controller queue — so the memo
/// is keyed on content, not on the Frame object.  4,096 entries (64 KB)
/// keep collisions between those contents rare.
constexpr unsigned kMemoBits = 12;
thread_local std::array<WireMemo, std::size_t{1} << kMemoBits> wire_memo{};

std::size_t memo_slot(std::uint64_t key, std::uint64_t data) {
  const std::uint64_t h = (key ^ std::rotl(data, 29)) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(h >> (64 - kMemoBits));
}

}  // namespace

// canely-lint: hot-path
std::size_t frame_bits_on_wire(const Frame& frame) {
  static_assert(sizeof(frame.data) == sizeof(std::uint64_t));
  std::uint64_t data;
  std::memcpy(&data, frame.data.data(), sizeof data);
  const std::uint64_t key = memo_key(frame, 0);
  WireMemo& memo = wire_memo[memo_slot(key, data)];
  if ((memo.key & ~kMemoBitsMask) == key && memo.data == data) {
    return (memo.key >> 35) & 0xFF;
  }
  // Memo miss: serialize and count stuff bits entirely in packed words —
  // never touches a byte-per-bit buffer.
  std::uint64_t raw[2];
  const std::size_t n = raw_bits_packed(frame, raw);
  const std::size_t wire_bits =
      n + count_stuff_bits_packed(raw, n) + kFrameTailBits;
  memo.key = memo_key(frame, wire_bits);
  memo.data = data;
  return wire_bits;
}

// canely-lint: hot-path
std::int32_t first_divergent_wire_bit(const Frame& a, const Frame& b) {
  std::uint8_t ra[kMaxRawBits];
  std::uint8_t rb[kMaxRawBits];
  std::uint8_t wa[kMaxStuffedBits];
  std::uint8_t wb[kMaxStuffedBits];
  const std::size_t na = stuff_into({ra, raw_bits_into(a, ra)}, wa);
  const std::size_t nb = stuff_into({rb, raw_bits_into(b, rb)}, wb);
  const std::size_t n = std::min(na, nb);
  for (std::size_t i = 0; i < n; ++i) {
    if (wa[i] != wb[i]) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(n);  // shorter stream ran out first
}

std::optional<std::vector<std::uint8_t>> destuff(
    std::span<const std::uint8_t> bits) {
  if (bits.size() > kPackCapBits) return destuff_reference(bits);
  std::vector<std::uint8_t> out;
  out.reserve(bits.size());
  std::uint64_t w[kPackWords];
  pack_bits(bits, w);
  RunWalker rw{w, bits.size()};
  unsigned v = 0;
  std::size_t len = 0;
  int last = -1;
  std::size_t run = 0;
  bool skip = false;
  while (rw.next(v, len)) {
    if (skip) {
      // The stuff bit heads this run.  Maximal runs alternate in value,
      // so it always complements the five preceding bits — a same-value
      // sixth bit would have extended the previous run instead, tripping
      // the length check below.
      skip = false;
      last = static_cast<int>(v);
      run = 1;
      if (--len == 0) continue;
    }
    const std::size_t k = static_cast<int>(v) == last ? run : 0;
    const std::size_t total = k + len;
    if (total > 5) return std::nullopt;  // six equal consecutive bits
    out.insert(out.end(), len, static_cast<std::uint8_t>(v));
    last = static_cast<int>(v);
    run = total;
    if (total == 5) skip = true;
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> destuff_reference(
    std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> out;
  out.reserve(bits.size());
  int run = 0;
  int last = -1;
  bool skip_next = false;
  for (std::uint8_t b : bits) {
    if (skip_next) {
      // This position holds a stuff bit; it must complement the run.
      if (b == last) return std::nullopt;  // stuff error
      skip_next = false;
      last = b;
      run = 1;
      continue;
    }
    out.push_back(b);
    if (b == last) {
      if (++run == 5) skip_next = true;
    } else {
      last = b;
      run = 1;
    }
  }
  return out;
}

namespace {

/// Sequential bit reader over an unstuffed sequence.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bits) : bits_{bits} {}
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t consumed() const { return pos_; }

  std::uint32_t take(int width) {
    std::uint32_t v = 0;
    for (int i = 0; i < width; ++i) {
      if (pos_ >= bits_.size()) {
        ok_ = false;
        return 0;
      }
      v = (v << 1) | bits_[pos_++];
    }
    return v;
  }

 private:
  std::span<const std::uint8_t> bits_;
  std::size_t pos_{0};
  bool ok_{true};
};

}  // namespace

std::optional<Frame> decode_raw_bits(std::span<const std::uint8_t> bits) {
  BitReader r{bits};
  if (r.take(1) != 0) return std::nullopt;  // SOF must be dominant

  Frame f;
  const std::uint32_t base_id = r.take(11);
  const std::uint32_t rtr_or_srr = r.take(1);
  const std::uint32_t ide = r.take(1);
  if (ide == 0) {
    f.format = IdFormat::kBase;
    f.id = base_id;
    f.remote = rtr_or_srr != 0;
    r.take(1);  // r0
  } else {
    if (rtr_or_srr != 1) return std::nullopt;  // SRR must be recessive
    f.format = IdFormat::kExtended;
    const std::uint32_t ext = r.take(18);
    f.id = (base_id << 18) | ext;
    f.remote = r.take(1) != 0;
    r.take(2);  // r1, r0
  }
  const std::uint32_t dlc = r.take(4);
  if (dlc > kMaxData) return std::nullopt;  // classic CAN caps at 8
  f.dlc = static_cast<std::uint8_t>(dlc);
  if (!f.remote) {
    for (std::size_t i = 0; i < f.dlc; ++i) {
      f.data[i] = static_cast<std::uint8_t>(r.take(8));
    }
  }
  if (!r.ok()) return std::nullopt;
  // CRC covers everything read so far; verify against the trailing 15.
  const std::uint16_t expect = crc15(bits.subspan(0, r.consumed()));
  const auto got = static_cast<std::uint16_t>(r.take(15));
  if (!r.ok() || got != expect) return std::nullopt;
  if (r.consumed() != bits.size()) return std::nullopt;  // trailing junk
  return f;
}

}  // namespace canely::can
