#include "kernel/guest_mem.h"

#include <algorithm>

namespace sm::kernel {

using arch::kPageShift;
using arch::kPageSize;
using arch::page_offset;
using arch::u64;
using arch::vpn_of;

namespace {

// Calls fn(va, done, n) for each page-bounded piece [va, va + n) of the
// len bytes at `start`, where `done` bytes precede the piece. Stops and
// returns false as soon as fn does.
template <class Fn>
bool for_each_page_chunk(u32 start, std::size_t len, Fn fn) {
  for (std::size_t done = 0; done < len;) {
    const u32 va = start + static_cast<u32>(done);
    const std::size_t n =
        std::min<std::size_t>(len - done, kPageSize - page_offset(va));
    if (!fn(va, done, n)) return false;
    done += n;
  }
  return true;
}

}  // namespace

std::optional<u64> GuestMem::phys_of(u32 va, View view) const {
  const Pte pte = const_cast<AddressSpace*>(as_)->pt().get(va);
  if (!pte.present()) return std::nullopt;
  u32 pfn = pte.pfn();
  if (const SplitPair* pair = as_->split_pair(vpn_of(va))) {
    pfn = view == View::kCode ? pair->code_frame : pair->data_frame;
  }
  return static_cast<u64>(pfn) * kPageSize + page_offset(va);
}

bool GuestMem::mapped(u32 va) const {
  return phys_of(va, View::kData).has_value();
}

bool GuestMem::read(u32 va, std::span<u8> out, View view) const {
  const PhysicalMemory& pm = as_->phys();
  const View from = view == View::kBoth ? View::kData : view;
  return for_each_page_chunk(
      va, out.size(), [&](u32 page_va, std::size_t done, std::size_t n) {
        const auto pa = phys_of(page_va, from);
        if (!pa) return false;
        pm.read(*pa, out.subspan(done, n));
        return true;
      });
}

bool GuestMem::write(u32 va, std::span<const u8> in, View view) {
  // Pre-check the whole range so partial writes don't happen.
  const bool all_mapped = for_each_page_chunk(
      va, in.size(),
      [&](u32 page_va, std::size_t, std::size_t) { return mapped(page_va); });
  if (!all_mapped) return false;
  PhysicalMemory& pm = as_->phys();
  for_each_page_chunk(
      va, in.size(), [&](u32 page_va, std::size_t done, std::size_t n) {
        const auto chunk = in.subspan(done, n);
        if (view != View::kCode) {
          pm.write(*phys_of(page_va, View::kData), chunk);
        }
        if (view != View::kData) {
          pm.write(*phys_of(page_va, View::kCode), chunk);
        }
        return true;
      });
  return true;
}

std::optional<u32> GuestMem::read32(u32 va, View view) const {
  u8 b[4];
  if (!read(va, b, view)) return std::nullopt;
  return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
         (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
}

bool GuestMem::write32(u32 va, u32 v, View view) {
  const u8 b[4] = {static_cast<u8>(v), static_cast<u8>(v >> 8),
                   static_cast<u8>(v >> 16), static_cast<u8>(v >> 24)};
  return write(va, b, view);
}

std::optional<std::string> GuestMem::read_cstr(u32 va, u32 max_len) const {
  const PhysicalMemory& pm = as_->phys();
  std::string out;
  bool terminated = false;
  for_each_page_chunk(
      va, max_len, [&](u32 page_va, std::size_t, std::size_t n) {
        const auto pa = phys_of(page_va, View::kData);
        if (!pa) return false;
        const auto bytes = pm.frame_bytes(static_cast<u32>(*pa >> kPageShift))
                               .subspan(page_offset(page_va), n);
        const auto nul = std::ranges::find(bytes, u8{0});
        out.append(bytes.begin(), nul);
        terminated = nul != bytes.end();
        return !terminated;
      });
  if (!terminated) return std::nullopt;
  return out;
}

}  // namespace sm::kernel
