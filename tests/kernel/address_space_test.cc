// Direct unit tests for AddressSpace (VMA bookkeeping, split-pair
// registry, teardown) and GuestMem (kernel-side views of split pages).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kernel/address_space.h"
#include "kernel/guest_mem.h"

namespace sm::kernel {
namespace {

using arch::kPageSize;
using arch::PhysicalMemory;
using arch::Pte;

Vma make_vma(u32 start, u32 end, u32 prot = 3) {
  Vma v;
  v.start = start;
  v.end = end;
  v.prot = prot;
  v.name = "test";
  return v;
}

TEST(AddressSpaceUnit, VmaAddFindRemove) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x14000));
  as.add_vma(make_vma(0x20000, 0x21000));
  EXPECT_NE(as.find_vma(0x10000), nullptr);
  EXPECT_NE(as.find_vma(0x13FFF), nullptr);
  EXPECT_EQ(as.find_vma(0x14000), nullptr);
  EXPECT_NE(as.find_vma(0x20000), nullptr);
}

TEST(AddressSpaceUnit, OverlappingVmaRejected) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x14000));
  EXPECT_THROW(as.add_vma(make_vma(0x12000, 0x15000)),
               std::invalid_argument);
  EXPECT_THROW(as.add_vma(make_vma(0x0F000, 0x11000)),
               std::invalid_argument);
  // Adjacent is fine.
  EXPECT_NO_THROW(as.add_vma(make_vma(0x14000, 0x15000)));
}

TEST(AddressSpaceUnit, MisalignedVmaRejected) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  EXPECT_THROW(as.add_vma(make_vma(0x10800, 0x14000)),
               std::invalid_argument);
  EXPECT_THROW(as.add_vma(make_vma(0x10000, 0x10000)),
               std::invalid_argument);
}

TEST(AddressSpaceUnit, RemoveRangeSplitsVmas) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x18000));
  as.remove_range(0x12000, 0x14000);
  EXPECT_NE(as.find_vma(0x10000), nullptr);  // left piece
  EXPECT_EQ(as.find_vma(0x12000), nullptr);  // hole
  EXPECT_EQ(as.find_vma(0x13FFF), nullptr);
  const Vma* right = as.find_vma(0x14000);
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(right->end, 0x18000u);
}

TEST(AddressSpaceUnit, RemoveRangeFreesMappedFrames) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x12000));
  const u32 f = pm.alloc_frame();
  as.pt().set(0x10000, Pte::make(f, Pte::kPresent | Pte::kUser));
  const u32 used = pm.frames_in_use();
  as.remove_range(0x10000, 0x12000);
  EXPECT_EQ(pm.frames_in_use(), used - 1);
}

TEST(AddressSpaceUnit, FindMmapGapSkipsExistingVmas) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x40000000, 0x40004000));
  const u32 gap = as.find_mmap_gap(0x2000);
  EXPECT_GE(gap, 0x40004000u);
  as.add_vma(make_vma(gap, gap + 0x2000));
  const u32 gap2 = as.find_mmap_gap(0x1000);
  EXPECT_GE(gap2, gap + 0x2000);
}

TEST(AddressSpaceUnit, SplitPairRegistryAndUnsplit) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x11000));
  SplitPair pair{pm.alloc_frame(), pm.alloc_frame()};
  as.pt().set(0x10000, Pte::make(pair.code_frame,
                                 Pte::kPresent | Pte::kSplit));
  as.register_split(0x10, pair);
  ASSERT_NE(as.split_pair(0x10), nullptr);
  EXPECT_EQ(as.split_pair(0x10)->data_frame, pair.data_frame);
  EXPECT_EQ(as.split_pair(0x11), nullptr);

  // Observe mode locks the PTE onto the data frame, then unsplits.
  as.pt().set(0x10000,
              Pte::make(pair.data_frame, Pte::kPresent | Pte::kUser));
  const u32 used = pm.frames_in_use();
  as.unsplit(0x10, /*kept_frame=*/pair.data_frame);
  EXPECT_EQ(as.split_pair(0x10), nullptr);
  EXPECT_EQ(pm.frames_in_use(), used - 1);  // code frame released
  // Teardown releases the kept frame exactly once (no double free).
}

TEST(AddressSpaceUnit, DestroyFreesSplitPairsOnce) {
  PhysicalMemory pm(64);
  const u32 before = pm.frames_in_use();
  {
    AddressSpace as(pm);
    as.add_vma(make_vma(0x10000, 0x11000));
    SplitPair pair{pm.alloc_frame(), pm.alloc_frame()};
    as.pt().set(0x10000,
                Pte::make(pair.code_frame, Pte::kPresent | Pte::kSplit));
    as.register_split(0x10, pair);
    // destructor runs destroy()
  }
  EXPECT_EQ(pm.frames_in_use(), before);
}

TEST(AddressSpaceUnit, InitialPageBytesRespectsBackingWindow) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  Vma v = make_vma(0x10000, 0x12000);
  auto backing = std::make_shared<std::vector<arch::u8>>();
  backing->resize(kPageSize + 10, 0xAA);
  (*backing)[0] = 0x11;
  (*backing)[kPageSize] = 0x22;
  v.backing = backing;
  as.add_vma(v);

  std::vector<arch::u8> page(kPageSize);
  as.initial_page_bytes(*as.find_vma(0x10000), 0x10000, page);
  EXPECT_EQ(page[0], 0x11);
  // Second page: first 10 bytes from backing, rest zero-filled.
  as.initial_page_bytes(*as.find_vma(0x11000), 0x11000, page);
  EXPECT_EQ(page[0], 0x22);
  EXPECT_EQ(page[10], 0x00);
}

TEST(GuestMemUnit, ViewsSelectTheRightFrame) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x11000));
  SplitPair pair{pm.alloc_frame(), pm.alloc_frame()};
  pm.frame_bytes(pair.code_frame)[4] = 0xC0;
  pm.frame_bytes(pair.data_frame)[4] = 0xDA;
  as.pt().set(0x10000,
              Pte::make(pair.code_frame, Pte::kPresent | Pte::kSplit));
  as.register_split(0x10, pair);

  GuestMem gm(as);
  arch::u8 b = 0;
  ASSERT_TRUE(gm.read(0x10004, {&b, 1}, View::kData));
  EXPECT_EQ(b, 0xDA);
  ASSERT_TRUE(gm.read(0x10004, {&b, 1}, View::kCode));
  EXPECT_EQ(b, 0xC0);

  // kBoth writes hit both frames; kData only the data frame.
  const arch::u8 w = 0x77;
  ASSERT_TRUE(gm.write(0x10008, {&w, 1}, View::kBoth));
  EXPECT_EQ(pm.frame_bytes(pair.code_frame)[8], 0x77);
  EXPECT_EQ(pm.frame_bytes(pair.data_frame)[8], 0x77);
  const arch::u8 w2 = 0x55;
  ASSERT_TRUE(gm.write(0x10008, {&w2, 1}, View::kData));
  EXPECT_EQ(pm.frame_bytes(pair.code_frame)[8], 0x77);
  EXPECT_EQ(pm.frame_bytes(pair.data_frame)[8], 0x55);
}

TEST(GuestMemUnit, UnmappedAccessReturnsFalseAndWritesNothing) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x11000));
  const u32 f = pm.alloc_frame();
  as.pt().set(0x10000, Pte::make(f, Pte::kPresent | Pte::kUser));

  GuestMem gm(as);
  // Range straddling into an unmapped page: nothing may be written.
  std::vector<arch::u8> data(16, 0xEE);
  EXPECT_FALSE(gm.write(0x10FF8, data));
  EXPECT_EQ(pm.frame_bytes(f)[kPageSize - 8], 0x00);
  std::vector<arch::u8> out(16);
  EXPECT_FALSE(gm.read(0x10FF8, out));
}

TEST(GuestMemUnit, ReadCstrStopsAtNulAndBounds) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x11000));
  const u32 f = pm.alloc_frame();
  as.pt().set(0x10000, Pte::make(f, Pte::kPresent | Pte::kUser));
  auto bytes = pm.frame_bytes(f);
  bytes[0] = 'h';
  bytes[1] = 'i';
  bytes[2] = 0;

  GuestMem gm(as);
  const auto s = gm.read_cstr(0x10000);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, "hi");
  // Unterminated within max_len -> nullopt.
  bytes[2] = 'x';
  EXPECT_FALSE(gm.read_cstr(0x10000, 3).has_value());
}

// Copies move one page-bounded piece per page. Two virtually adjacent
// pages sit on frames that are not physically adjacent, the second one
// split, and a decoy fills the frame physically after the first: a copy
// that ran on past the page boundary would read or write the decoy.
TEST(GuestMemUnit, StraddlingCopiesFollowEachPagesOwnFrames) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x12000));
  const u32 first = pm.alloc_frame();
  const u32 decoy = pm.alloc_frame();
  ASSERT_EQ(decoy, first + 1);
  SplitPair pair{pm.alloc_frame(), pm.alloc_frame()};
  as.pt().set(0x10000, Pte::make(first, Pte::kPresent | Pte::kUser));
  as.pt().set(0x11000,
              Pte::make(pair.code_frame, Pte::kPresent | Pte::kSplit));
  as.register_split(0x11, pair);
  std::ranges::fill(pm.frame_bytes(decoy), arch::u8{0xEE});
  const arch::u8 tail[4] = {0xA0, 0xA1, 0xA2, 0xA3};
  const arch::u8 data_head[4] = {0xD0, 0xD1, 0xD2, 0xD3};
  const arch::u8 code_head[4] = {0xC0, 0xC1, 0xC2, 0xC3};
  std::ranges::copy(tail, pm.frame_bytes(first).end() - 4);
  std::ranges::copy(data_head, pm.frame_bytes(pair.data_frame).begin());
  std::ranges::copy(code_head, pm.frame_bytes(pair.code_frame).begin());

  GuestMem gm(as);
  const std::vector<arch::u8> want_data = {0xA0, 0xA1, 0xA2, 0xA3,
                                           0xD0, 0xD1, 0xD2, 0xD3};
  const std::vector<arch::u8> want_code = {0xA0, 0xA1, 0xA2, 0xA3,
                                           0xC0, 0xC1, 0xC2, 0xC3};
  std::vector<arch::u8> out(8);
  ASSERT_TRUE(gm.read(0x10FFC, out, View::kData));
  EXPECT_EQ(out, want_data);
  ASSERT_TRUE(gm.read(0x10FFC, out, View::kCode));
  EXPECT_EQ(out, want_code);

  // kBoth lands the second half in both frames of the pair; kData only in
  // the data frame. Every touched frame's generation moves.
  const u64 gen_first = pm.generation(first);
  const u64 gen_code = pm.generation(pair.code_frame);
  const u64 gen_data = pm.generation(pair.data_frame);
  const std::vector<arch::u8> both(8, 0x77);
  ASSERT_TRUE(gm.write(0x10FFC, both, View::kBoth));
  EXPECT_GT(pm.generation(first), gen_first);
  EXPECT_GT(pm.generation(pair.code_frame), gen_code);
  EXPECT_GT(pm.generation(pair.data_frame), gen_data);
  EXPECT_EQ(pm.frame_bytes(first)[kPageSize - 4], 0x77);
  EXPECT_EQ(pm.frame_bytes(pair.code_frame)[3], 0x77);
  EXPECT_EQ(pm.frame_bytes(pair.data_frame)[3], 0x77);
  EXPECT_EQ(pm.frame_bytes(pair.data_frame)[4], 0x00);
  const std::vector<arch::u8> data_only(8, 0x55);
  ASSERT_TRUE(gm.write(0x10FFC, data_only, View::kData));
  EXPECT_EQ(pm.frame_bytes(first)[kPageSize - 1], 0x55);
  EXPECT_EQ(pm.frame_bytes(pair.code_frame)[0], 0x77);
  EXPECT_EQ(pm.frame_bytes(pair.data_frame)[0], 0x55);
  EXPECT_TRUE(std::ranges::all_of(pm.frame_bytes(decoy),
                                  [](arch::u8 b) { return b == 0xEE; }));

  // A string that starts in the first page ends in the data frame.
  const arch::u8 ab[2] = {'a', 'b'};
  const arch::u8 cd[3] = {'c', 'd', 0};
  std::ranges::copy(ab, pm.frame_bytes(first).end() - 2);
  std::ranges::copy(cd, pm.frame_bytes(pair.data_frame).begin());
  const auto s = gm.read_cstr(0x10FFE);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*s, "abcd");
  // Bounded inside the first page, it is unterminated.
  EXPECT_FALSE(gm.read_cstr(0x10FFE, 2).has_value());
}

TEST(GuestMemUnit, Write32ReadsBackLittleEndian) {
  PhysicalMemory pm(64);
  AddressSpace as(pm);
  as.add_vma(make_vma(0x10000, 0x11000));
  const u32 f = pm.alloc_frame();
  as.pt().set(0x10000, Pte::make(f, Pte::kPresent | Pte::kUser));
  GuestMem gm(as);
  ASSERT_TRUE(gm.write32(0x10010, 0xA1B2C3D4));
  EXPECT_EQ(pm.frame_bytes(f)[0x10], 0xD4);
  const auto v = gm.read32(0x10010);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0xA1B2C3D4u);
}

}  // namespace
}  // namespace sm::kernel
