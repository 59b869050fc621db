// The exit-memory digest (AddressSpace::data_digest, DESIGN.md §10): VMA
// extents plus every 64-byte chunk whose data view differs from the VMA's
// initial bytes. It must see any changed byte, where in its page it sits,
// and any change of extent, and must not depend on how a page came to be
// present: demand paging, eager loading, split pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kernel/address_space.h"
#include "kernel/guest_mem.h"
#include "support/guest_runner.h"

namespace sm::kernel {
namespace {

using arch::kPageSize;
using arch::PhysicalMemory;
using arch::Pte;

constexpr u32 kStackTop = 0xC0000000;
constexpr u32 kStackBase = kStackTop - 64 * kPageSize;
constexpr u32 kMmapBase = 0x40000000;

Vma make_vma(u32 start, u32 end, VmaKind kind) {
  Vma v;
  v.start = start;
  v.end = end;
  v.prot = 3;
  v.kind = kind;
  v.name = "test";
  return v;
}

// A 64-page stack and an anonymous mmap of `mmap_pages` pages (none if
// 0), nothing touched yet.
struct Space {
  PhysicalMemory pm{64};
  AddressSpace as{pm};

  explicit Space(u32 mmap_pages = 4) {
    as.add_vma(make_vma(kStackBase, kStackTop, VmaKind::kStack));
    if (mmap_pages != 0) {
      as.add_vma(make_vma(kMmapBase, kMmapBase + mmap_pages * kPageSize,
                          VmaKind::kMmap));
    }
  }
  // Maps a zeroed frame at va, as a first touch would.
  u32 map(u32 va) {
    const u32 f = pm.alloc_frame();
    as.pt().set(va, Pte::make(f, Pte::kPresent | Pte::kUser));
    return f;
  }
  void poke(u32 va, u8 v) { ASSERT_TRUE(GuestMem(as).write(va, {&v, 1})); }
  image::Digest digest() const { return as.data_digest(); }
};

TEST(ExitDigest, OneNonZeroByteOnAnUntouchedPageCounts) {
  const image::Digest untouched = Space().digest();
  // The first two vas are one chunk apart in one page: their changed
  // chunks hold the same bytes, and only the chunk's va tells them apart.
  std::vector<image::Digest> seen{untouched};
  for (const u32 va : {kStackBase + 17 * kPageSize + 123,
                       kStackBase + 17 * kPageSize + 123 + 64,
                       kMmapBase + 2 * kPageSize + 7}) {
    Space s;
    s.map(arch::page_floor(va));
    s.poke(va, 1);
    const image::Digest d = s.digest();
    EXPECT_EQ(std::ranges::count(seen, d), 0) << std::hex << va;
    seen.push_back(d);
    s.poke(va, 0);
    EXPECT_EQ(s.digest(), untouched) << std::hex << va;
  }
}

TEST(ExitDigest, ExtentsAreHashed) {
  // Equal contents, an all-zero mmap of a different length (or none).
  Space four(4), five(5), none(0);
  for (Space* s : {&four, &five, &none}) {
    s->map(kStackTop - kPageSize);
    s->poke(kStackTop - 4, 0x42);
  }
  EXPECT_NE(four.digest(), five.digest());
  EXPECT_NE(four.digest(), none.digest());
  EXPECT_NE(five.digest(), none.digest());
}

TEST(ExitDigest, PresentZeroPageHashesLikeAbsentPage) {
  Space absent, present;
  present.map(kStackTop - kPageSize);
  present.map(kMmapBase + kPageSize);
  EXPECT_EQ(absent.digest(), present.digest());
}

TEST(ExitDigest, AbsentBackedPageHashesAsItsInitialBytes) {
  // One full page of backing, then 8 bytes into the second page; the
  // third page lies beyond it.
  const auto backing =
      std::make_shared<const std::vector<u8>>(kPageSize + 8, u8{0x5A});
  Space absent, present;
  for (Space* s : {&absent, &present}) {
    Vma v = make_vma(0x10000, 0x13000, VmaKind::kData);
    v.backing = backing;
    s->as.add_vma(std::move(v));
  }
  for (const u32 page : {0x10000u, 0x11000u, 0x12000u}) {
    const u32 f = present.map(page);
    present.as.initial_page_bytes(*present.as.find_vma(page), page,
                                  present.pm.frame_bytes(f));
  }
  EXPECT_EQ(absent.digest(), present.digest());
  // Written away from the backing's values and back again.
  present.poke(0x10123, 0x11);
  EXPECT_NE(absent.digest(), present.digest());
  present.poke(0x10123, 0x5A);
  EXPECT_EQ(absent.digest(), present.digest());
  // The backing ends inside the second page's first chunk: its own byte at
  // offset 7 is no change, a zero there or a non-zero byte past it is.
  present.poke(0x11007, 0x5A);
  EXPECT_EQ(absent.digest(), present.digest());
  present.poke(0x11007, 0);
  EXPECT_NE(absent.digest(), present.digest());
  present.poke(0x11007, 0x5A);
  present.poke(0x11009, 0x5A);
  EXPECT_NE(absent.digest(), present.digest());
}

TEST(ExitDigest, EmptyOrZeroBackingHashesLikeAnonymousMemory) {
  // The loader's .bss shape: a backed VMA whose backing supplies nothing,
  // or only zeros, reads as zero pages, so its absent pages digest like
  // the same extent of anonymous memory.
  Space anon(0), empty(0), zeros(0);
  anon.as.add_vma(make_vma(0x10000, 0x13000, VmaKind::kBss));
  Vma e = make_vma(0x10000, 0x13000, VmaKind::kBss);
  e.backing = std::make_shared<const std::vector<u8>>();
  empty.as.add_vma(std::move(e));
  Vma z = make_vma(0x10000, 0x13000, VmaKind::kBss);
  z.backing = std::make_shared<const std::vector<u8>>(kPageSize + 8, u8{0});
  zeros.as.add_vma(std::move(z));
  EXPECT_EQ(anon.digest(), empty.digest());
  EXPECT_EQ(anon.digest(), zeros.digest());
}

TEST(ExitDigest, SplitPageHashesItsDataView) {
  Space plain, split;
  const u32 page = kStackTop - kPageSize;
  plain.map(page);
  plain.poke(page + 9, 0xDA);
  const SplitPair pair{split.pm.alloc_frame(), split.pm.alloc_frame()};
  split.as.pt().set(page,
                    Pte::make(pair.code_frame, Pte::kPresent | Pte::kSplit));
  split.as.register_split(arch::vpn_of(page), pair);
  split.pm.frame_bytes(pair.code_frame)[9] = 0xC0;
  split.pm.frame_bytes(pair.data_frame)[9] = 0xDA;
  EXPECT_EQ(plain.digest(), split.digest());
}

TEST(ExitDigest, HashingIsNotAWrite) {
  // The decode and block caches key on frame generations; observing
  // memory must not look like mutating it.
  Space s;
  s.map(kStackTop - kPageSize);
  s.poke(kStackTop - 4, 1);
  std::vector<u64> before;
  for (u32 f = 0; f < s.pm.num_frames(); ++f) {
    before.push_back(s.pm.generation(f));
  }
  (void)s.digest();
  for (u32 f = 0; f < s.pm.num_frames(); ++f) {
    EXPECT_EQ(s.pm.generation(f), before[f]) << "frame " << f;
  }
}

// Eager loading maps (and under split, pairs) every page at spawn; demand
// paging maps only what the guest touches. The exit digests agree.
TEST(ExitDigest, EagerLoadAndDemandPagingAgree) {
  const char* body = R"(
_start:
  movi r0, SYS_MMAP
  movi r1, 0
  movi r2, 16384
  movi r3, 3
  syscall
  mov r5, r0
  movi r2, 77
  store [r5+8192], r2
  movi r4, buf
  store [r4+4100], r2
  push r2
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.data
msg: .ascii "initialised, never touched"
.bss
buf: .space 16384
)";
  std::optional<image::Digest> first;
  for (const auto mode :
       {core::ProtectionMode::kNone, core::ProtectionMode::kSplitAll}) {
    for (const bool eager : {false, true}) {
      KernelConfig cfg;
      cfg.eager_load = eager;
      auto r = testing::run_guest(body, mode, 10'000'000, cfg);
      ASSERT_TRUE(r.k->all_exited());
      const auto d = r.final_digest();
      ASSERT_TRUE(d.has_value());
      if (!first) first = d;
      EXPECT_EQ(*d, *first) << "mode " << static_cast<int>(mode)
                            << " eager " << eager;
    }
  }
}

}  // namespace
}  // namespace sm::kernel
