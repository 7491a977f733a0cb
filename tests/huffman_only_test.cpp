// Tests for the order-0 Huffman entropy coder (fast-mode alternative to
// deflate, paper Sec. IV-D future work).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "deflate/huffman_only.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wck {
namespace {

Bytes make_bytes(const std::string& s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(HuffmanOnly, RoundTripBasicCases) {
  for (const auto& data :
       {Bytes{}, make_bytes("a"), make_bytes("hello world"),
        make_bytes(std::string(100000, 'z'))}) {
    EXPECT_EQ(huffman_only_decompress(huffman_only_compress(data)), data);
  }
}

TEST(HuffmanOnly, RoundTripRandomBytes) {
  Xoshiro256 rng(1);
  Bytes data(50000);
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(256));
  EXPECT_EQ(huffman_only_decompress(huffman_only_compress(data)), data);
}

TEST(HuffmanOnly, SkewedDistributionCompresses) {
  // Index-stream-like data: a few dominant byte values.
  Xoshiro256 rng(2);
  Bytes data(100000);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.uniform() < 0.9 ? rng.bounded(4) : rng.bounded(256));
  }
  const Bytes comp = huffman_only_compress(data);
  EXPECT_LT(comp.size(), data.size() / 2);
  EXPECT_EQ(huffman_only_decompress(comp), data);
}

TEST(HuffmanOnly, IncompressibleDataStoredWithoutBlowup) {
  Xoshiro256 rng(3);
  Bytes data(10000);
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(256));
  const Bytes comp = huffman_only_compress(data);
  EXPECT_LE(comp.size(), data.size() + 16);
}

TEST(HuffmanOnly, AllByteValuesRoundTrip) {
  Bytes data;
  for (int rep = 0; rep < 5; ++rep) {
    for (int v = 0; v < 256; ++v) data.push_back(static_cast<std::byte>(v));
  }
  EXPECT_EQ(huffman_only_decompress(huffman_only_compress(data)), data);
}

TEST(HuffmanOnly, MalformedInputRejected) {
  EXPECT_THROW((void)huffman_only_decompress({}), FormatError);
  Bytes junk(40, std::byte{0x77});
  EXPECT_THROW((void)huffman_only_decompress(junk), FormatError);

  Xoshiro256 rng(4);
  Bytes data(5000);
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(8));
  Bytes comp = huffman_only_compress(data);
  comp.resize(comp.size() / 2);  // truncate mid-bitstream
  EXPECT_THROW((void)huffman_only_decompress(comp), FormatError);
}

TEST(HuffmanOnly, ImplausibleSizeRejectedBeforeAllocating) {
  // A valid coded stream whose size varint is replaced by a claim its
  // bits cannot hold (each symbol costs at least one bit): 2^44 bytes
  // used to throw std::bad_alloc, and 2^27 to reserve 128 MiB first.
  Xoshiro256 rng(5);
  Bytes data(5000);
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(8));
  const Bytes comp = huffman_only_compress(data);
  ByteReader r(comp);
  const std::uint32_t magic = r.u32();
  ASSERT_EQ(r.varint(), data.size());
  for (const std::uint64_t claim : {std::uint64_t{1} << 44, std::uint64_t{1} << 27}) {
    ByteWriter w;
    w.u32(magic);
    w.varint(claim);
    w.raw(comp.data() + r.position(), comp.size() - r.position());
    try {
      (void)huffman_only_decompress(w.buffer());
      ADD_FAILURE() << "claim " << claim << " accepted";
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
          << "claim " << claim << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace wck
