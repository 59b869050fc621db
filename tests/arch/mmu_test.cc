// MMU tests, including the TLB-desynchronization property the entire paper
// rests on: after the I-TLB and D-TLB are filled from different PTE values,
// instruction fetches and data accesses for the SAME virtual address reach
// DIFFERENT physical frames.
#include "arch/mmu.h"

#include <gtest/gtest.h>

#include <vector>

namespace sm::arch {
namespace {

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : pm_(64), mmu_(pm_, stats_, cost_) {
    root_ = PageTable::create(pm_);
    mmu_.set_cr3(root_);
  }

  PageTable pt() { return PageTable(pm_, root_); }

  u32 map(u32 vaddr, u32 flags) {
    const u32 frame = pm_.alloc_frame();
    pt().set(vaddr, Pte::make(frame, flags));
    return frame;
  }

  // The accessors, for accesses the test expects to go through: a fault
  // fails the test, and the read value comes back as the result.
  u8 read8(u32 va) {
    u8 v = 0;
    EXPECT_FALSE(mmu_.read8(va, v).has_value()) << "read8 " << va;
    return v;
  }
  u32 read32(u32 va) {
    u32 v = 0;
    EXPECT_FALSE(mmu_.read32(va, v).has_value()) << "read32 " << va;
    return v;
  }
  u8 fetch8(u32 va) {
    u8 v = 0;
    EXPECT_FALSE(mmu_.fetch8(va, v).has_value()) << "fetch8 " << va;
    return v;
  }
  void write8(u32 va, u8 v) {
    EXPECT_FALSE(mmu_.write8(va, v).has_value()) << "write8 " << va;
  }
  void write32(u32 va, u32 v) {
    EXPECT_FALSE(mmu_.write32(va, v).has_value()) << "write32 " << va;
  }

  metrics::Stats stats_;
  metrics::CostModel cost_;
  PhysicalMemory pm_;
  Mmu mmu_;
  u32 root_;
};

constexpr u32 kUserRw = Pte::kPresent | Pte::kUser | Pte::kWritable;

TEST_F(MmuTest, MissThenHit) {
  map(0x5000, kUserRw);
  read8(0x5000);
  EXPECT_EQ(stats_.dtlb_misses, 1u);
  read8(0x5004);
  EXPECT_EQ(stats_.dtlb_hits, 1u);
  EXPECT_EQ(stats_.dtlb_misses, 1u);
}

TEST_F(MmuTest, FetchUsesItlbDataUsesDtlb) {
  map(0x5000, kUserRw);
  fetch8(0x5000);
  EXPECT_EQ(stats_.itlb_misses, 1u);
  EXPECT_EQ(stats_.dtlb_misses, 0u);
  read8(0x5000);
  EXPECT_EQ(stats_.dtlb_misses, 1u);  // separate TLBs: both miss once
}

TEST_F(MmuTest, NotPresentFaults) {
  u8 v = 0;
  const MemFault f = mmu_.read8(0x7000, v);
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->present);
  EXPECT_EQ(f->addr, 0x7000u);
}

TEST_F(MmuTest, SupervisorPageFaultsForUserAccess) {
  map(0x5000, Pte::kPresent | Pte::kWritable);  // no kUser: restricted
  u8 v = 0;
  const MemFault f = mmu_.read8(0x5000, v);
  ASSERT_TRUE(f.has_value()) << "expected fault";
  EXPECT_TRUE(f->present);  // protection, not absence
}

TEST_F(MmuTest, WriteToReadOnlyFaults) {
  map(0x5000, Pte::kPresent | Pte::kUser);
  read8(0x5000);  // fills D-TLB read-only
  EXPECT_TRUE(mmu_.write8(0x5000, 1).has_value());
}

TEST_F(MmuTest, NxBlocksFetchButNotData) {
  map(0x5000, kUserRw | Pte::kNoExec);
  u8 v = 0;
  EXPECT_FALSE(mmu_.read8(0x5000, v).has_value());
  EXPECT_TRUE(mmu_.fetch8(0x5000, v).has_value());
}

TEST_F(MmuTest, TlbEntryPersistsAfterPteChange) {
  // Fill the D-TLB, then clear the PTE: cached translation still serves.
  const u32 frame = map(0x5000, kUserRw);
  write8(0x5000, 0xAB);
  pt().set(0x5000, Pte{});  // unmap in the page table only
  EXPECT_EQ(read8(0x5000), 0xAB);  // still reachable via D-TLB
  EXPECT_EQ(pm_.frame_bytes(frame)[0], 0xAB);
  // After invlpg the truth is re-read from the page table: fault.
  mmu_.invlpg(0x5000);
  u8 v = 0;
  EXPECT_TRUE(mmu_.read8(0x5000, v).has_value());
}

TEST_F(MmuTest, SplitTlbDesynchronization) {
  // The paper's §4.2 mechanism, at the hardware level:
  //  1. PTE -> code frame; fetch fills the I-TLB.
  //  2. PTE -> data frame; read fills the D-TLB.
  //  3. Same virtual address now routes fetch and data to different frames.
  const u32 code_frame = pm_.alloc_frame();
  const u32 data_frame = pm_.alloc_frame();
  pm_.frame_bytes(code_frame)[0] = 0x90;  // "real code"
  pm_.frame_bytes(data_frame)[0] = 0xCC;  // "injected bytes"

  pt().set(0x5000, Pte::make(code_frame, Pte::kPresent | Pte::kUser));
  EXPECT_EQ(fetch8(0x5000), 0x90);

  pt().set(0x5000, Pte::make(data_frame, kUserRw));
  EXPECT_EQ(read8(0x5000), 0xCC);

  // Desynchronized: fetch still sees the code frame.
  EXPECT_EQ(fetch8(0x5000), 0x90);
  // Writing "shellcode" through the data path can NEVER reach the fetch
  // path.
  write8(0x5000, 0x41);
  EXPECT_EQ(fetch8(0x5000), 0x90);
  EXPECT_EQ(pm_.frame_bytes(data_frame)[0], 0x41);
}

TEST_F(MmuTest, FillDtlbViaWalkLoadsCurrentPte) {
  const u32 frame = map(0x6000, kUserRw);
  pm_.frame_bytes(frame)[8] = 0x7E;
  EXPECT_TRUE(mmu_.fill_dtlb_via_walk(0x6008));
  // Restrict the PTE afterwards, as Algorithm 1 does.
  Pte pte = pt().get(0x6000);
  pte.restrict_supervisor();
  pt().set(0x6000, pte);
  // The D-TLB entry was cached user-accessible: access still succeeds.
  EXPECT_EQ(read8(0x6008), 0x7E);
  EXPECT_EQ(stats_.dtlb_hits, 1u);
}

TEST_F(MmuTest, FillDtlbViaWalkFailsOnUnmapped) {
  EXPECT_FALSE(mmu_.fill_dtlb_via_walk(0xA000));
}

TEST_F(MmuTest, Cr3WriteFlushesBothTlbs) {
  map(0x5000, kUserRw);
  read8(0x5000);
  fetch8(0x5000);
  EXPECT_TRUE(mmu_.dtlb().contains(5));
  EXPECT_TRUE(mmu_.itlb().contains(5));
  mmu_.set_cr3(root_);
  EXPECT_FALSE(mmu_.dtlb().contains(5));
  EXPECT_FALSE(mmu_.itlb().contains(5));
}

TEST_F(MmuTest, StraddlingRead32) {
  map(0x5000, kUserRw);
  map(0x6000, kUserRw);
  write8(0x5FFF, 0x11);
  write8(0x6000, 0x22);
  write8(0x6001, 0x33);
  write8(0x6002, 0x44);
  EXPECT_EQ(read32(0x5FFF), 0x44332211u);
}

TEST_F(MmuTest, StraddlingWrite32FaultsAtomically) {
  map(0x5000, kUserRw);  // 0x6000 unmapped
  write8(0x5FFF, 0x99);
  EXPECT_TRUE(mmu_.write32(0x5FFF, 0).has_value());
  EXPECT_EQ(read8(0x5FFF), 0x99);  // first byte untouched
}

// --- Fetch-translation memo (the one-entry fast path ahead of the I-TLB
// set scan). The memo must never outlive any event that can change what a
// fetch translates to: invlpg, CR3 reload, software TLB insertion, or a
// PTE repoint made visible by an invalidation.

TEST_F(MmuTest, FetchMemoHitsAfterFirstFetch) {
  map(0x5000, kUserRw);
  fetch8(0x5000);  // walk + I-TLB fill; memo armed on the TLB hit path
  EXPECT_EQ(stats_.fetch_fastpath_hits, 0u);
  fetch8(0x5001);  // first memo consult happens on the second fetch
  fetch8(0x5002);
  EXPECT_GE(stats_.fetch_fastpath_hits, 1u);
  EXPECT_EQ(stats_.itlb_misses, 1u);
}

TEST_F(MmuTest, InvlpgDropsFetchMemoAndForcesRewalk) {
  map(0x5000, kUserRw);
  fetch8(0x5000);
  fetch8(0x5001);  // memo warm
  const auto walks = stats_.hardware_walks;
  mmu_.invlpg(0x5000);
  fetch8(0x5002);
  EXPECT_EQ(stats_.itlb_misses, 2u);          // re-walked, not memo-served
  EXPECT_GT(stats_.hardware_walks, walks);
}

TEST_F(MmuTest, Cr3ReloadDropsFetchMemo) {
  map(0x5000, kUserRw);
  fetch8(0x5000);
  fetch8(0x5001);
  mmu_.set_cr3(root_);  // flushes TLBs; the memo must die with them
  fetch8(0x5002);
  EXPECT_EQ(stats_.itlb_misses, 2u);
}

TEST_F(MmuTest, InsertTlbEntryDropsFetchMemo) {
  const u32 f1 = map(0x5000, kUserRw);
  fetch8(0x5000);
  fetch8(0x5001);  // memo points at f1
  // Software TLB handler redirects the fetch mapping to a fresh frame (the
  // paper's software-loaded split-TLB variant). The very next fetch must
  // observe the new pfn, not the memoized one.
  const u32 f2 = pm_.alloc_frame();
  pm_.frame_bytes(f2)[3] = 0xAB;
  pm_.frame_bytes(f1)[3] = 0xCD;
  mmu_.insert_tlb_entry(/*instruction=*/true, 5, f2, /*user=*/true,
                        /*writable=*/false, /*no_exec=*/false);
  EXPECT_EQ(fetch8(0x5003), 0xAB);
}

TEST_F(MmuTest, FetchMemoDoesNotMaskPteRepoint) {
  // Repointing the PTE without invalidation must NOT take effect (TLB
  // persistence semantics, which the memo inherits); after invlpg it must.
  const u32 f1 = map(0x5000, kUserRw);
  pm_.frame_bytes(f1)[0] = 0x11;
  fetch8(0x5000);
  fetch8(0x5001);  // memo warm
  const u32 f2 = pm_.alloc_frame();
  pm_.frame_bytes(f2)[0] = 0x22;
  pt().set(0x5000, Pte::make(f2, kUserRw));
  EXPECT_EQ(fetch8(0x5000), 0x11);  // stale mapping still live
  mmu_.invlpg(0x5000);
  EXPECT_EQ(fetch8(0x5000), 0x22);  // invalidation exposes the repoint
}

// --- Straddle regression: a 32-bit access crossing a page boundary spans
// exactly two pages, so it must cost exactly two translations — not one
// per byte.

TEST_F(MmuTest, StraddlingRead32TranslatesOncePerPage) {
  map(0x5000, kUserRw);
  map(0x6000, kUserRw);
  read8(0x5000);  // warm both D-TLB entries so deltas are pure hits
  read8(0x6000);
  for (u32 off : {4093u, 4094u, 4095u}) {
    const auto hits = stats_.dtlb_hits;
    read32(0x5000 + off);
    EXPECT_EQ(stats_.dtlb_hits, hits + 2) << "offset " << off;
  }
  const auto hits = stats_.dtlb_hits;
  read32(0x5000 + 4092);  // fully inside one page: one translation
  EXPECT_EQ(stats_.dtlb_hits, hits + 1);
}

TEST_F(MmuTest, StraddlingWrite32TranslatesOncePerPage) {
  map(0x5000, kUserRw);
  map(0x6000, kUserRw);
  write8(0x5000, 0);
  write8(0x6000, 0);
  const auto hits = stats_.dtlb_hits;
  write32(0x5FFD, 0xA1B2C3D4);
  EXPECT_EQ(stats_.dtlb_hits, hits + 2);
  EXPECT_EQ(read32(0x5FFD), 0xA1B2C3D4u);
}

// --- Data-translation memos (read/write one-entry fast paths ahead of the
// D-TLB set scan, mirroring the fetch memo). Same lifetime rules: any TLB
// churn (invlpg, CR3 reload, software insert, eviction) kills them, and a
// memo hit bills exactly what the set-scan hit it replaces would have.

TEST_F(MmuTest, DataMemoHitsAfterRepeatedReads) {
  map(0x5000, kUserRw);
  read8(0x5000);  // walk + D-TLB fill
  EXPECT_EQ(stats_.data_fastpath_hits, 0u);
  read8(0x5001);  // set-scan hit; read memo armed here
  read8(0x5002);  // memo hit
  EXPECT_GE(stats_.data_fastpath_hits, 1u);
  EXPECT_EQ(stats_.dtlb_misses, 1u);
  EXPECT_EQ(stats_.dtlb_hits, 2u);  // memo hits bill as ordinary D-TLB hits
}

TEST_F(MmuTest, DataMemoReadAndWriteEntriesAreSeparate) {
  map(0x5000, kUserRw);
  read8(0x5000);
  read8(0x5001);
  read8(0x5002);  // read memo warm and hitting
  const auto fast = stats_.data_fastpath_hits;
  write8(0x5003, 1);  // first write: set scan, arms the write memo
  EXPECT_EQ(stats_.data_fastpath_hits, fast);
  write8(0x5004, 2);  // second write: write-memo hit
  EXPECT_GT(stats_.data_fastpath_hits, fast);
}

TEST_F(MmuTest, DataMemoNeverGrantsWriteThroughReadOnlyPage) {
  map(0x5000, Pte::kPresent | Pte::kUser);  // read-only
  read8(0x5000);
  read8(0x5001);
  read8(0x5002);  // read memo warm for this vpn
  EXPECT_GE(stats_.data_fastpath_hits, 1u);
  // The warm READ memo must not let a WRITE through: the write consults its
  // own (cold) memo, set-scans, and faults on the missing writable bit.
  EXPECT_TRUE(mmu_.write8(0x5003, 1).has_value());
}

TEST_F(MmuTest, InvlpgDropsDataMemoAndForcesRewalk) {
  map(0x5000, kUserRw);
  read8(0x5000);
  read8(0x5001);  // memo warm
  const auto walks = stats_.hardware_walks;
  mmu_.invlpg(0x5000);
  read8(0x5002);
  EXPECT_EQ(stats_.dtlb_misses, 2u);  // re-walked, not memo-served
  EXPECT_GT(stats_.hardware_walks, walks);
}

TEST_F(MmuTest, Cr3ReloadDropsDataMemo) {
  map(0x5000, kUserRw);
  read8(0x5000);
  read8(0x5001);
  mmu_.set_cr3(root_);  // flushes TLBs; the memos must die with them
  read8(0x5002);
  EXPECT_EQ(stats_.dtlb_misses, 2u);
}

TEST_F(MmuTest, InsertTlbEntryDropsDataMemo) {
  const u32 f1 = map(0x5000, kUserRw);
  read8(0x5000);
  read8(0x5001);  // read memo points at f1
  const u32 f2 = pm_.alloc_frame();
  pm_.frame_bytes(f2)[3] = 0xAB;
  pm_.frame_bytes(f1)[3] = 0xCD;
  // Software TLB handler redirects the data mapping: the very next read
  // must observe the new pfn, not the memoized one.
  mmu_.insert_tlb_entry(/*instruction=*/false, 5, f2, /*user=*/true,
                        /*writable=*/true, /*no_exec=*/false);
  EXPECT_EQ(read8(0x5003), 0xAB);
}

TEST_F(MmuTest, DataMemoDoesNotMaskPteRepoint) {
  const u32 f1 = map(0x5000, kUserRw);
  pm_.frame_bytes(f1)[0] = 0x11;
  read8(0x5000);
  read8(0x5001);  // memo warm
  const u32 f2 = pm_.alloc_frame();
  pm_.frame_bytes(f2)[0] = 0x22;
  pt().set(0x5000, Pte::make(f2, kUserRw));
  EXPECT_EQ(read8(0x5000), 0x11);  // TLB persistence, memo inherits it
  mmu_.invlpg(0x5000);
  EXPECT_EQ(read8(0x5000), 0x22);  // invalidation exposes the repoint
}

TEST_F(MmuTest, DataMemoBillingIdentity) {
  // The memo is a host-side fast path ONLY: replaying the same access trace
  // with the memo disabled must produce identical values in every simulated
  // counter. Compare whole Stats structs with the fastpath diagnostics
  // (which differ by design) zeroed out.
  auto run_trace = [](bool memo_on, metrics::Stats& stats) {
    metrics::CostModel cost;
    PhysicalMemory pm(96);
    Mmu mmu(pm, stats, cost);
    mmu.set_data_memo_enabled(memo_on);
    const u32 root = PageTable::create(pm);
    PageTable pt(pm, root);
    std::vector<u32> bases;
    for (u32 i = 0; i < 24; ++i) {
      const u32 va = 0x10000 + i * 0x1000;
      pt.set(va, Pte::make(pm.alloc_frame(), kUserRw));
      bases.push_back(va);
    }
    const u32 ro = 0x40000;
    pt.set(ro, Pte::make(pm.alloc_frame(), Pte::kPresent | Pte::kUser));
    mmu.set_cr3(root);

    u8 b = 0;
    u32 w = 0;
    for (u32 rep = 0; rep < 3; ++rep) {
      for (const u32 va : bases) {  // sequential: memo-friendly
        EXPECT_FALSE(mmu.write32(va + 8, va).has_value());
        EXPECT_FALSE(mmu.read32(va + 8, w).has_value());
        EXPECT_FALSE(mmu.read8(va + (rep * 17) % 256, b).has_value());
      }
      for (u32 i = 0; i + 1 < bases.size(); i += 5) {
        // page-straddling access
        EXPECT_FALSE(mmu.read32(bases[i] + 0xFFE, w).has_value());
      }
      for (u32 i = 0; i < 8; ++i) {  // ping-pong: memo-hostile
        EXPECT_FALSE(mmu.read8(bases[i % 2] + i, b).has_value());
      }
      EXPECT_FALSE(mmu.read8(ro, b).has_value());
      // permission fault inside the trace
      EXPECT_TRUE(mmu.write8(ro + 1, 1).has_value());
      mmu.invlpg(bases[3]);
      if (rep == 1) mmu.flush_tlbs();
    }
  };

  metrics::Stats with_memo, without_memo;
  run_trace(true, with_memo);
  run_trace(false, without_memo);
  EXPECT_GT(with_memo.data_fastpath_hits, 0u);   // fast path exercised
  EXPECT_EQ(without_memo.data_fastpath_hits, 0u);

  // Every simulated counter identical.
  EXPECT_EQ(metrics::billing_difference(without_memo, with_memo), "");
}

TEST_F(MmuTest, DataMemoLruStampMatchesSetScan) {
  // A memo hit must re-stamp the same entry a set scan would have, or later
  // eviction decisions diverge from the memo-off machine. Detect that
  // through eviction order, using the WRITE memo so interleaved reads (which
  // re-arm the read memo) can't disturb it:
  //   fill a set; scan-hit-write page0 (arms write memo); scan-hit-read
  //   page1; WRITE-MEMO-hit page0 — if touch() works page0 is now MRU and
  //   page1 is the set's LRU; after re-touching the other ways and forcing
  //   one eviction, page0 must still be resident.
  const u32 sets = mmu_.dtlb().sets();
  const u32 ways = mmu_.dtlb().ways();
  ASSERT_GE(ways, 3u);
  std::vector<u32> vpns;  // all land in set 0
  for (u32 i = 0; i <= ways; ++i) vpns.push_back((i + 16) * sets);
  for (const u32 vpn : vpns) map(vpn << 12, kUserRw);

  for (u32 i = 0; i < ways; ++i) write8(vpns[i] << 12, 1);  // fill set
  write8((vpns[0] << 12) + 1, 1);  // scan hit: arms write memo (page0)
  read8((vpns[1] << 12) + 1);      // scan hit: stamps page1 newer
  const auto fast = stats_.data_fastpath_hits;
  write8((vpns[0] << 12) + 2, 1);  // write-memo hit: page0 back to MRU
  EXPECT_GT(stats_.data_fastpath_hits, fast);
  for (u32 i = 2; i < ways; ++i) read8((vpns[i] << 12) + 1);
  read8(vpns[ways] << 12);  // (ways+1)-th page: evicts the LRU = page1
  const auto misses = stats_.dtlb_misses;
  read8((vpns[0] << 12) + 3);  // page0 survived iff touch() re-stamped
  EXPECT_EQ(stats_.dtlb_misses, misses);
  EXPECT_FALSE(mmu_.dtlb().contains(vpns[1]));  // page1 paid the eviction
}

TEST_F(MmuTest, AccessedAndDirtyBitsSetOnWalk) {
  map(0x5000, kUserRw);
  read8(0x5000);
  EXPECT_TRUE(pt().get(0x5000).accessed());
  EXPECT_FALSE(pt().get(0x5000).dirty());
  mmu_.invlpg(0x5000);
  write8(0x5000, 1);
  EXPECT_TRUE(pt().get(0x5000).dirty());
}

}  // namespace
}  // namespace sm::arch
