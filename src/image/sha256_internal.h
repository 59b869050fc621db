// The two SHA-256 block compressors behind image::Sha256, declared for the
// image library and its tests. Sha256 picks SHA-NI when the CPU has it; the
// tests call each compressor directly, so the portable one is checked on
// SHA-NI hosts too.
#pragma once

#include <cstddef>

#include "arch/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SM_SHA256_NI 1
#endif

namespace sm::image::internal {

// Compresses `blocks` consecutive 64-byte blocks into the eight-word state,
// in portable C++.
void compress_scalar(arch::u32* state, const arch::u8* data,
                     std::size_t blocks);

#if defined(SM_SHA256_NI)
// The same through the x86 SHA extensions. Call only when cpu_has_sha_ni().
void compress_ni(arch::u32* state, const arch::u8* data, std::size_t blocks);
bool cpu_has_sha_ni();
#endif

}  // namespace sm::image::internal
