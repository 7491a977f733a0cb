#include "deflate/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "deflate/deflate_tables.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

constexpr int kHashBits = 15;
constexpr std::uint32_t kHashSize = 1u << kHashBits;
constexpr std::uint32_t kWindow = deflate_tables::kWindowSize;
constexpr std::uint32_t kWindowMask = kWindow - 1;
/// Inputs at most this long clear the hash heads they touched instead
/// of the whole 128 KiB table.
constexpr std::size_t kPartialClearMax = 16 * 1024;

/// Hashes the 3 bytes starting at p.
inline std::uint32_t hash3(const std::uint8_t* p) noexcept {
  // Multiplicative hash of the 3-byte group.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint16_t load16(const std::uint8_t* p) noexcept {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Length of the common prefix of a and b, up to `limit`: eight bytes
/// per step, the first differing byte located from the zero bits of the
/// XOR that precede it in memory order.
inline int match_length(const std::uint8_t* a, const std::uint8_t* b, int limit) noexcept {
  int n = 0;
  while (n + 8 <= limit) {
    const std::uint64_t diff = load64(a + n) ^ load64(b + n);
    if (diff != 0) {
      const int zero_bits = std::endian::native == std::endian::little ? std::countr_zero(diff)
                                                                       : std::countl_zero(diff);
      return n + zero_bits / 8;
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// Hash-chain tables, reused across calls on the same thread. Heads and
/// links hold position + 1, so 0 means "no earlier position". `prev` is
/// a ring over the 32 KiB window: a link is only followed from a
/// candidate inside the window, and its slot is not reused until the
/// parse is a full window past it. `head` is all zero between calls.
struct ChainTables {
  std::vector<std::uint32_t> head = std::vector<std::uint32_t>(kHashSize, 0);
  std::vector<std::uint32_t> prev = std::vector<std::uint32_t>(kWindow, 0);
};

class Matcher {
 public:
  Matcher(const std::uint8_t* data, std::size_t size, const Lz77Params& params)
      : data_(data), size_(size), params_(params), tables_(thread_tables()) {}

  /// Returns the heads to all-zero, also when the parse throws.
  ~Matcher() {
    if (size_ <= kPartialClearMax) {
      for (std::size_t pos = 0; pos + 3 <= size_; ++pos) tables_.head[hash3(data_ + pos)] = 0;
    } else {
      std::fill(tables_.head.begin(), tables_.head.end(), 0u);
    }
  }

  /// Inserts position `pos` into the hash chains.
  void insert(std::size_t pos) noexcept {
    if (pos + 3 > size_) return;
    std::uint32_t& head = tables_.head[hash3(data_ + pos)];
    tables_.prev[pos & kWindowMask] = head;
    head = static_cast<std::uint32_t>(pos + 1);
  }

  /// Finds the longest match at `pos`, at least kMinMatch long; returns
  /// length 0 if none. `best_dist` receives the distance.
  int find(std::size_t pos, int* best_dist) const noexcept {
    *best_dist = 0;
    if (pos + deflate_tables::kMinMatch > size_) return 0;
    const int limit =
        static_cast<int>(std::min<std::size_t>(deflate_tables::kMaxMatch, size_ - pos));
    // Candidates are stored as position + 1 and may lie up to kWindow
    // bytes back, so the oldest usable stored value is pos - kWindow + 1.
    const std::size_t window_floor = pos > kWindow ? pos - kWindow + 1 : 1;
    const std::uint8_t* const cur = data_ + pos;
    const std::uint16_t cur_head = load16(cur);

    int best_len = 0;
    std::uint16_t best_tail = 0;  // bytes cur[best_len - 1 .. best_len]
    std::size_t cand = tables_.head[hash3(cur)];
    int chain = params_.max_chain;
    while (cand >= window_floor && chain-- > 0) {
      const std::size_t c = cand - 1;
      const std::uint8_t* const m = data_ + c;
      // Quick rejects: a candidate that differs from `cur` anywhere in
      // bytes 0..best_len cannot beat best_len, and one that differs in
      // bytes 0..2 cannot reach kMinMatch.
      const bool viable = best_len == 0
                              ? load16(m) == cur_head && m[2] == cur[2]
                              : load16(m + best_len - 1) == best_tail && load16(m) == cur_head;
      if (viable) {
        const int len = match_length(m, cur, limit);
        if (len > best_len && len >= deflate_tables::kMinMatch) {
          best_len = len;
          *best_dist = static_cast<int>(pos - c);
          if (best_len >= params_.nice_length || best_len == limit) break;
          best_tail = load16(cur + best_len - 1);
        }
      }
      cand = tables_.prev[c & kWindowMask];
    }
    return best_len;
  }

 private:
  static ChainTables& thread_tables() {
    thread_local ChainTables tables;
    return tables;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  Lz77Params params_;
  ChainTables& tables_;
};

}  // namespace

Lz77Params lz77_params_for_level(int level) {
  if (level < 1 || level > 9) {
    throw InvalidArgumentError("compression level must be 1..9");
  }
  // Roughly zlib's configuration_table.
  static constexpr Lz77Params kTable[9] = {
      {4, 8, 0},       // 1
      {8, 16, 4},      // 2
      {32, 32, 6},     // 3
      {16, 16, 8},     // 4
      {32, 32, 16},    // 5
      {128, 128, 16},  // 6
      {256, 128, 32},  // 7
      {1024, 258, 128},  // 8
      {4096, 258, 258},  // 9
  };
  return kTable[level - 1];
}

std::vector<Lz77Token> lz77_parse(std::span<const std::byte> input, const Lz77Params& params) {
  std::vector<Lz77Token> tokens;
  if (input.empty()) return tokens;
  if (input.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgumentError("LZ77 input of " + std::to_string(input.size()) +
                               " bytes exceeds the 4 GiB position range");
  }
  tokens.reserve(input.size() / 3 + 16);

  const auto* data = reinterpret_cast<const std::uint8_t*>(input.data());
  const std::size_t size = input.size();
  Matcher matcher(data, size, params);

  std::size_t pos = 0;
  // One-step lazy matching: a longer match found at pos+1 is carried to
  // the next iteration instead of being searched for again (nothing is
  // inserted in between, so the search would return the same match).
  int len = 0;
  int dist = 0;
  bool carried = false;
  while (pos < size) {
    if (!carried) len = matcher.find(pos, &dist);
    carried = false;
    if (len < deflate_tables::kMinMatch) {
      tokens.push_back(Lz77Token::literal(data[pos]));
      matcher.insert(pos);
      ++pos;
      continue;
    }
    std::size_t next_insert = pos;
    if (len < params.lazy_threshold && pos + 1 < size) {
      // Peek at pos+1; if it yields a strictly longer match, emit a
      // literal instead and defer.
      matcher.insert(pos);
      int next_dist = 0;
      const int next_len = matcher.find(pos + 1, &next_dist);
      if (next_len > len) {
        tokens.push_back(Lz77Token::literal(data[pos]));
        ++pos;
        len = next_len;
        dist = next_dist;
        carried = true;
        continue;
      }
      next_insert = pos + 1;  // pos itself is already inserted
    }
    tokens.push_back(Lz77Token::match(len, dist));
    const std::size_t end = pos + static_cast<std::size_t>(len);
    for (std::size_t i = next_insert; i < end; ++i) matcher.insert(i);
    pos = end;
  }
  return tokens;
}

}  // namespace wck
