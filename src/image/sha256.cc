#include "image/sha256.h"

#include <cstring>
#include <string>

#include "image/sha256_internal.h"

#if defined(SM_SHA256_NI)
#include <immintrin.h>
#endif

namespace sm::image {

using arch::u32;
using arch::u64;
using arch::u8;

namespace {

constexpr u32 kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

u32 rotr(u32 x, u32 n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace internal {

void compress_scalar(u32* state, const u8* p, std::size_t blocks) {
  for (; blocks > 0; --blocks, p += 64) {
    u32 w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<u32>(p[4 * i]) << 24) |
             (static_cast<u32>(p[4 * i + 1]) << 16) |
             (static_cast<u32>(p[4 * i + 2]) << 8) |
             static_cast<u32>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const u32 s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const u32 s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    u32 a = state[0], b = state[1], c = state[2], d = state[3];
    u32 e = state[4], f = state[5], g = state[6], hh = state[7];
    for (int i = 0; i < 64; ++i) {
      const u32 s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const u32 ch = (e & f) ^ (~e & g);
      const u32 t1 = hh + s1 + ch + kK[i] + w[i];
      const u32 s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const u32 maj = (a & b) ^ (a & c) ^ (b & c);
      const u32 t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += hh;
  }
}

// x86 SHA extensions: four-round SHA256RNDS2 plus message-schedule helper
// instructions. Compiled with a per-function target attribute and selected
// at runtime via cpuid, so the binary still runs (scalar path) on CPUs and
// compilers without them. This is the standard two-lane (ABEF/CDGH) state
// layout from the Intel reference flow.
#if defined(SM_SHA256_NI)
__attribute__((target("sha,sse4.1,ssse3"))) void compress_ni(
    u32* state, const u8* data, std::size_t blocks) {
  const __m128i MASK =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i TMP = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i STATE1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  TMP = _mm_shuffle_epi32(TMP, 0xB1);          // CDAB
  STATE1 = _mm_shuffle_epi32(STATE1, 0x1B);    // EFGH
  __m128i STATE0 = _mm_alignr_epi8(TMP, STATE1, 8);  // ABEF
  STATE1 = _mm_blend_epi16(STATE1, TMP, 0xF0);       // CDGH

  while (blocks-- > 0) {
    const __m128i ABEF_SAVE = STATE0;
    const __m128i CDGH_SAVE = STATE1;
    __m128i MSG, MSG0, MSG1, MSG2, MSG3;

    // Rounds 0-3
    MSG = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    MSG0 = _mm_shuffle_epi8(MSG, MASK);
    MSG = _mm_add_epi32(
        MSG0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 4-7
    MSG1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    MSG1 = _mm_shuffle_epi8(MSG1, MASK);
    MSG = _mm_add_epi32(
        MSG1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 8-11
    MSG2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    MSG2 = _mm_shuffle_epi8(MSG2, MASK);
    MSG = _mm_add_epi32(
        MSG2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 12-15
    MSG3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    MSG3 = _mm_shuffle_epi8(MSG3, MASK);
    MSG = _mm_add_epi32(
        MSG3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
    MSG0 = _mm_add_epi32(MSG0, TMP);
    MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

    // Rounds 16-19
    MSG = _mm_add_epi32(
        MSG0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
    MSG1 = _mm_add_epi32(MSG1, TMP);
    MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

    // Rounds 20-23
    MSG = _mm_add_epi32(
        MSG1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
    MSG2 = _mm_add_epi32(MSG2, TMP);
    MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 24-27
    MSG = _mm_add_epi32(
        MSG2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
    MSG3 = _mm_add_epi32(MSG3, TMP);
    MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 28-31
    MSG = _mm_add_epi32(
        MSG3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
    MSG0 = _mm_add_epi32(MSG0, TMP);
    MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

    // Rounds 32-35
    MSG = _mm_add_epi32(
        MSG0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
    MSG1 = _mm_add_epi32(MSG1, TMP);
    MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

    // Rounds 36-39
    MSG = _mm_add_epi32(
        MSG1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
    MSG2 = _mm_add_epi32(MSG2, TMP);
    MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG0 = _mm_sha256msg1_epu32(MSG0, MSG1);

    // Rounds 40-43
    MSG = _mm_add_epi32(
        MSG2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
    MSG3 = _mm_add_epi32(MSG3, TMP);
    MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG1 = _mm_sha256msg1_epu32(MSG1, MSG2);

    // Rounds 44-47
    MSG = _mm_add_epi32(
        MSG3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG3, MSG2, 4);
    MSG0 = _mm_add_epi32(MSG0, TMP);
    MSG0 = _mm_sha256msg2_epu32(MSG0, MSG3);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG2 = _mm_sha256msg1_epu32(MSG2, MSG3);

    // Rounds 48-51
    MSG = _mm_add_epi32(
        MSG0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG0, MSG3, 4);
    MSG1 = _mm_add_epi32(MSG1, TMP);
    MSG1 = _mm_sha256msg2_epu32(MSG1, MSG0);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);
    MSG3 = _mm_sha256msg1_epu32(MSG3, MSG0);

    // Rounds 52-55
    MSG = _mm_add_epi32(
        MSG1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG1, MSG0, 4);
    MSG2 = _mm_add_epi32(MSG2, TMP);
    MSG2 = _mm_sha256msg2_epu32(MSG2, MSG1);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 56-59
    MSG = _mm_add_epi32(
        MSG2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    TMP = _mm_alignr_epi8(MSG2, MSG1, 4);
    MSG3 = _mm_add_epi32(MSG3, TMP);
    MSG3 = _mm_sha256msg2_epu32(MSG3, MSG2);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    // Rounds 60-63
    MSG = _mm_add_epi32(
        MSG3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    STATE1 = _mm_sha256rnds2_epu32(STATE1, STATE0, MSG);
    MSG = _mm_shuffle_epi32(MSG, 0x0E);
    STATE0 = _mm_sha256rnds2_epu32(STATE0, STATE1, MSG);

    STATE0 = _mm_add_epi32(STATE0, ABEF_SAVE);
    STATE1 = _mm_add_epi32(STATE1, CDGH_SAVE);
    data += 64;
  }

  TMP = _mm_shuffle_epi32(STATE0, 0x1B);        // FEBA
  STATE1 = _mm_shuffle_epi32(STATE1, 0xB1);     // DCHG
  STATE0 = _mm_blend_epi16(TMP, STATE1, 0xF0);  // DCBA
  STATE1 = _mm_alignr_epi8(STATE1, TMP, 8);     // HGFE

  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), STATE0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), STATE1);
}

bool cpu_has_sha_ni() {
  static const bool ok = __builtin_cpu_supports("sha") &&
                         __builtin_cpu_supports("sse4.1") &&
                         __builtin_cpu_supports("ssse3");
  return ok;
}
#endif  // SM_SHA256_NI

}  // namespace internal

namespace {

void compress(u32* state, const u8* p, std::size_t blocks) {
#if defined(SM_SHA256_NI)
  if (internal::cpu_has_sha_ni()) {
    internal::compress_ni(state, p, blocks);
    return;
  }
#endif
  internal::compress_scalar(state, p, blocks);
}

}  // namespace

void Sha256::update(std::span<const u8> data) {
  total_len_ += data.size();
  const u8* p = data.data();
  std::size_t n = data.size();
  // Top up a partial block first, then compress straight out of the input
  // 64 bytes at a time — no per-byte staging copy for bulk data.
  if (block_len_ != 0) {
    const std::size_t take = std::min(n, 64 - block_len_);
    std::memcpy(block_ + block_len_, p, take);
    block_len_ += take;
    p += take;
    n -= take;
    if (block_len_ == 64) {
      compress(h_, block_, 1);
      block_len_ = 0;
    }
  }
  if (const std::size_t blocks = n / 64; blocks > 0) {
    compress(h_, p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n != 0) {
    std::memcpy(block_ + block_len_, p, n);
    block_len_ += n;
  }
}

Digest Sha256::final() {
  const u64 bit_len = total_len_ * 8;
  const u8 pad = 0x80;
  update({&pad, 1});
  const u8 zero = 0;
  while (block_len_ != 56) update({&zero, 1});
  u8 len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  update({len_bytes, 8});
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<u8>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<u8>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<u8>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<u8>(h_[i]);
  }
  return out;
}

Digest sha256(std::span<const u8> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.final();
}

Digest hmac_sha256(std::span<const u8> key, std::span<const u8> data) {
  u8 k[64] = {};
  if (key.size() > 64) {
    const Digest kd = sha256(key);
    std::memcpy(k, kd.data(), kd.size());
  } else {
    std::memcpy(k, key.data(), key.size());
  }
  u8 ipad[64];
  u8 opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update({ipad, 64});
  inner.update(data);
  const Digest inner_digest = inner.final();
  Sha256 outer;
  outer.update({opad, 64});
  outer.update({inner_digest.data(), inner_digest.size()});
  return outer.final();
}

std::string hex_digest(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (u8 b : d) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

}  // namespace sm::image
