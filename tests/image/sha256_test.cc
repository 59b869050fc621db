#include "image/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "image/sha256_internal.h"

namespace sm::image {
namespace {

using arch::u32;
using arch::u64;
using arch::u8;

std::vector<arch::u8> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

using Compressor = void (*)(u32*, const u8*, std::size_t);

// Every block compressor this host can run, by name: the portable one
// always, SHA-NI where the CPU has it.
std::vector<std::pair<const char*, Compressor>> compressors() {
  std::vector<std::pair<const char*, Compressor>> out = {
      {"scalar", internal::compress_scalar}};
#if defined(SM_SHA256_NI)
  if (internal::cpu_has_sha_ni()) {
    out.emplace_back("sha-ni", internal::compress_ni);
  }
#endif
  return out;
}

// SHA-256 of `m` through one compressor: FIPS 180-4 padding, then every
// block from the initial hash value.
std::string digest_with(Compressor compress, std::vector<u8> m) {
  const u64 bits = static_cast<u64>(m.size()) * 8;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 7; i >= 0; --i) m.push_back(static_cast<u8>(bits >> (8 * i)));
  u32 h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(h, m.data(), m.size() / 64);
  Digest d;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      d[4 * i + j] = static_cast<u8>(h[i] >> (24 - 8 * j));
    }
  }
  return hex_digest(d);
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex_digest(sha256(bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_digest(sha256(bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex_digest(sha256(bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  // One million 'a' characters (FIPS 180 test vector).
  const std::vector<arch::u8> a(1'000'000, 'a');
  EXPECT_EQ(hex_digest(sha256(a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtEveryChunkAlignment) {
  // The exit-digest path streams page-sized pieces through the
  // incremental hasher; irregular chunk sizes must hit every
  // partial-block carry case (mid-block, exact block, multi-block with
  // remainder) and still match the one-shot digest.
  const std::vector<arch::u8> a(1'000'000, 'a');
  const std::string want = hex_digest(sha256(a));
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{4096}, std::size_t{9973}}) {
    Sha256 h;
    for (std::size_t off = 0; off < a.size(); off += chunk)
      h.update(std::span(a).subspan(off, std::min(chunk, a.size() - off)));
    EXPECT_EQ(hex_digest(h.final()), want) << "chunk=" << chunk;
  }
}

TEST(Sha256, EveryCompressorMeetsTheFips180Vectors) {
  const std::pair<std::string, const char*> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [name, compress] : compressors()) {
    for (const auto& [msg, want] : vectors) {
      EXPECT_EQ(digest_with(compress, bytes(msg)), want)
          << name << ", " << msg.size() << "-byte message";
    }
  }
}

TEST(Sha256, ScalarAndShaNiCompressorsAgreeOnRandomBlocks) {
#if !defined(SM_SHA256_NI)
  GTEST_SKIP() << "no SHA-NI compressor on this platform";
#else
  if (!internal::cpu_has_sha_ni()) GTEST_SKIP() << "CPU lacks SHA-NI";
  std::mt19937 rng(1804);
  for (int trial = 0; trial < 64; ++trial) {
    // A random state as well as random data: the compressors must agree
    // from any chaining value, not only from the initial one.
    u32 scalar[8];
    for (u32& w : scalar) w = static_cast<u32>(rng());
    u32 ni[8];
    std::copy(std::begin(scalar), std::end(scalar), std::begin(ni));
    std::vector<u8> data(64 * (1 + rng() % 40));
    for (u8& b : data) b = static_cast<u8>(rng());
    internal::compress_scalar(scalar, data.data(), data.size() / 64);
    internal::compress_ni(ni, data.data(), data.size() / 64);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(scalar[i], ni[i])
          << "trial " << trial << ", " << data.size() / 64 << " blocks, word "
          << i;
    }
  }
#endif
}

TEST(HmacSha256, Rfc4231Vector1) {
  const std::vector<arch::u8> key(20, 0x0b);
  EXPECT_EQ(hex_digest(hmac_sha256(key, bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Vector2) {
  EXPECT_EQ(hex_digest(hmac_sha256(bytes("Jefe"),
                                   bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const std::vector<arch::u8> key(131, 0xaa);
  EXPECT_EQ(hex_digest(hmac_sha256(
                key, bytes("Test Using Larger Than Block-Size Key - Hash "
                           "Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

}  // namespace
}  // namespace sm::image
