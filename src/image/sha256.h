// Minimal SHA-256 and HMAC-SHA256 (FIPS 180-4 / RFC 2104).
//
// Used for DigSig-style binary signing (paper §4.3 defers to [28]; we
// implement the check so library/binary loading is actually gated on a
// valid signature in this reproduction).
#pragma once

#include <array>
#include <span>
#include <string>

#include "arch/types.h"

namespace sm::image {

using Digest = std::array<arch::u8, 32>;

// Incremental hasher: update() any number of times, then final() once.
// Hashing N chunks produces the same digest as hashing their
// concatenation, so callers can stream page-sized pieces instead of
// assembling a contiguous buffer (the exit-digest path hashes each
// changed 64-byte chunk in place, behind a 4-byte va that leaves every
// later block unaligned).
class Sha256 {
 public:
  void update(std::span<const arch::u8> data);
  Digest final();

 private:
  arch::u32 h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  arch::u8 block_[64];
  std::size_t block_len_ = 0;
  arch::u64 total_len_ = 0;
};

Digest sha256(std::span<const arch::u8> data);
Digest hmac_sha256(std::span<const arch::u8> key,
                   std::span<const arch::u8> data);

std::string hex_digest(const Digest& d);

}  // namespace sm::image
