// The machine schema. Each record is declared once, as a table of (wire
// name, member) entries or through one of the shape helpers, and save
// (Writer) and restore (Reader) both walk that declaration. See snapshot.h
// for the contract and DESIGN.md §15 for the format.

#include "snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <ranges>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "arch/cpu.h"
#include "arch/mmu.h"
#include "arch/phys_mem.h"
#include "arch/tlb.h"
#include "image/image.h"
#include "inject/fault_injector.h"
#include "invariant/watchdog.h"
#include "kernel/kernel.h"
#include "metrics/stats.h"
#include "snapshot/serializer.h"
#include "trace/trace.h"

namespace sm::snapshot {

namespace {

using arch::kPageSize;

// Counted lists above this are refused before anything is sized by them.
constexpr u32 kMaxCount = 1u << 20;

// Enumerator count of each stored enum: an enum travels as one byte and
// is refused on restore unless it is below this count.
template <class E>
constexpr u8 kEnumCount = static_cast<u8>(E::kCount);
template <>
constexpr u8 kEnumCount<kernel::ProcState> =
    static_cast<u8>(kernel::ProcState::kZombie) + 1;
template <>
constexpr u8 kEnumCount<kernel::ExitKind> =
    static_cast<u8>(kernel::ExitKind::kKilledSigill) + 1;
template <>
constexpr u8 kEnumCount<kernel::VmaKind> =
    static_cast<u8>(kernel::VmaKind::kLibrary) + 1;
template <>
constexpr u8 kEnumCount<inject::Outcome> =
    static_cast<u8>(inject::Outcome::kBreach) + 1;

// --- packed payloads --------------------------------------------------------

// Little-endian fixed-width integers and enums inside one bytes field.
template <class T>
void put_le(std::vector<u8>& out, T v) {
  const auto x = static_cast<u64>(v);
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    out.push_back(static_cast<u8>(x >> (8 * b)));
  }
}

template <class T>
T get_le(const u8* p) {
  u64 x = 0;
  for (std::size_t b = sizeof(T); b-- > 0;) x = x << 8 | p[b];
  return static_cast<T>(x);
}

// A flat record packed as its members, in the order of `layout` (a tuple
// of member pointers), each little-endian at its own width.
template <class R, class... M>
constexpr std::size_t packed_size(const std::tuple<M R::*...>&) {
  return (sizeof(M) + ...);
}

template <class R, class Layout>
void pack(std::vector<u8>& out, const R& r, const Layout& layout) {
  std::apply([&](auto... m) { (put_le(out, r.*m), ...); }, layout);
}

template <class R, class Layout>
void unpack(const u8*& p, R& r, const Layout& layout) {
  std::apply(
      [&](auto... m) {
        ((r.*m = get_le<std::remove_cvref_t<decltype(r.*m)>>(p),
          p += sizeof(r.*m)),
         ...);
      },
      layout);
}

template <class T>
constexpr bool kIsU64Array = false;
template <std::size_t N>
constexpr bool kIsU64Array<std::array<u64, N>> = true;

// A u32 vector, deque or set, or a u64 array, packed into one bytes field.
// On restore a container is refilled in order (a saved set is already
// sorted); an array must come back exactly as long.
template <class T>
concept PackedSeq =
    kIsU64Array<T> || (std::ranges::range<T> &&
                       std::same_as<std::ranges::range_value_t<T>, u32>);

template <class Ar, PackedSeq C>
void packed_seq(Ar& ar, const char* name, C& c) {
  using T = std::ranges::range_value_t<C>;
  std::vector<u8> blob;
  if constexpr (!Ar::reading) {
    blob.reserve(c.size() * sizeof(T));
    for (const T v : c) put_le(blob, v);
  }
  ar.value(name, blob);
  if constexpr (Ar::reading) {
    ar.check(blob.size() % sizeof(T) == 0, "packed sequence length");
    if constexpr (kIsU64Array<C>) {
      ar.check(blob.size() == c.size() * sizeof(T), "packed array length");
      for (std::size_t i = 0; i < c.size(); ++i) {
        c[i] = get_le<T>(&blob[i * sizeof(T)]);
      }
    } else {
      c.clear();
      for (std::size_t i = 0; i < blob.size(); i += sizeof(T)) {
        c.insert(c.end(), get_le<T>(&blob[i]));
      }
    }
  }
}

using FreeFdHeap =
    std::priority_queue<u32, std::vector<u32>, std::greater<u32>>;

// --- one member's wire form, chosen by its type -----------------------------

template <class Ar, class T>
void field(Ar& ar, const char* name, T& v) {
  if constexpr (std::is_enum_v<T>) {
    u8 b = static_cast<u8>(v);
    ar.value(name, b);
    ar.check(b < kEnumCount<T>, "enum value out of range");
    if constexpr (Ar::reading) v = static_cast<T>(b);
  } else if constexpr (std::is_same_v<T, int>) {
    // A count kept signed in memory.
    u32 w = static_cast<u32>(v);
    ar.value(name, w);
    if constexpr (Ar::reading) v = static_cast<int>(w);
  } else if constexpr (std::is_same_v<T, double>) {
    // Its IEEE-754 bit pattern: bit-exact, and a dump never rounds.
    u64 bits = std::bit_cast<u64>(v);
    ar.value(name, bits);
    if constexpr (Ar::reading) v = std::bit_cast<double>(bits);
  } else if constexpr (std::is_same_v<T, std::deque<u8>>) {
    std::vector<u8> bytes;
    if constexpr (!Ar::reading) bytes.assign(v.begin(), v.end());
    ar.value(name, bytes);
    if constexpr (Ar::reading) v.assign(bytes.begin(), bytes.end());
  } else if constexpr (PackedSeq<T>) {
    packed_seq(ar, name, v);
  } else if constexpr (std::is_same_v<T, FreeFdHeap>) {
    // Ascending (pop) order, the only observable property of the heap.
    std::vector<u32> fds;
    if constexpr (!Ar::reading) {
      for (FreeFdHeap heap = v; !heap.empty(); heap.pop()) {
        fds.push_back(heap.top());
      }
    }
    packed_seq(ar, name, fds);
    if constexpr (Ar::reading) {
      for (const u32 fd : fds) v.push(fd);
    }
  } else if constexpr (std::is_same_v<T, image::Digest>) {
    ar.bytes_into(name, std::span<u8>(v));
  } else if constexpr (std::is_same_v<T, image::Image>) {
    std::vector<u8> blob;
    if constexpr (!Ar::reading) blob = v.serialize();
    ar.value(name, blob);
    if constexpr (Ar::reading) {
      try {
        v = image::Image::deserialize(blob);
      } catch (const std::exception& e) {
        ar.fail(std::string("bad image payload: ") + e.what());
      }
    }
  } else if constexpr (std::is_same_v<T, arch::Regs>) {
    static constexpr const char* kRegNames[] = {"r0", "r1", "r2", "r3",
                                                "r4", "r5", "r6", "r7"};
    static_assert(std::size(kRegNames) == arch::kNumRegs);
    ar.begin(name);
    for (u32 i = 0; i < arch::kNumRegs; ++i) ar.value(kRegNames[i], v.r[i]);
    ar.value("pc", v.pc);
    ar.value("flags", v.flags);
    ar.end();
  } else {
    ar.value(name, v);
  }
}

bool same_value(double a, double b) {
  return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}
template <class T>
bool same_value(const T& a, const T& b) {
  return a == b;
}

// A value the restoring kernel must already hold: written as it is, and
// on restore compared against the live value instead of assigned (restore
// is an in-place reset, not a constructor).
template <class Ar, class T>
void must_match(Ar& ar, const char* name, const T& live,
                const char* why = nullptr) {
  T v = live;
  field(ar, name, v);
  if constexpr (Ar::reading) {
    if (!same_value(v, live)) {
      ar.fail(why != nullptr
                  ? std::string(why)
                  : std::string("mismatch at '") + name +
                        "': the snapshot was taken on a differently "
                        "configured kernel");
    }
  }
}

// has_<x> flag, then the value when there is one.
template <class Ar, class T>
void optional(Ar& ar, const char* has_name, const char* name,
              std::optional<T>& o) {
  bool has = o.has_value();
  ar.value(has_name, has);
  if constexpr (Ar::reading) {
    o.reset();
    if (has) field(ar, name, o.emplace());
  } else if (has) {
    field(ar, name, *o);
  }
}

// The same for a VMA's immutable backing bytes.
template <class Ar>
void optional(Ar& ar, const char* has_name, const char* name,
              std::shared_ptr<const std::vector<u8>>& p) {
  bool has = p != nullptr;
  ar.value(has_name, has);
  if (!has) return;
  if constexpr (Ar::reading) {
    std::vector<u8> bytes;
    ar.value(name, bytes);
    p = std::make_shared<const std::vector<u8>>(std::move(bytes));
  } else {
    ar.bytes(name, *p);
  }
}

// --- member tables ----------------------------------------------------------
//
// A record is a tuple of entries, each naming one member and its wire
// form; members() walks the tuple in order for either archive. Entries
// receive the object tables as context; only shared references use them.

template <class C, class M>
struct Plain {
  const char* name;
  M C::*member;
  template <class Ar, class... Ctx>
  void operator()(Ar& ar, C& c, Ctx&...) const {
    field(ar, name, c.*member);
  }
};

template <class C, class M>
struct Matched {
  const char* name;
  M C::*member;
  template <class Ar, class... Ctx>
  void operator()(Ar& ar, C& c, Ctx&...) const {
    must_match(ar, name, c.*member);
  }
};

template <class C, class M>
struct Optional {
  const char* has_name;
  const char* name;
  M C::*member;
  template <class Ar, class... Ctx>
  void operator()(Ar& ar, C& c, Ctx&...) const {
    optional(ar, has_name, name, c.*member);
  }
};

// A std::string that may outgrow the string cap, stored as bytes.
template <class C>
struct Blob {
  const char* name;
  std::string C::*member;
  template <class Ar, class... Ctx>
  void operator()(Ar& ar, C& c, Ctx&...) const {
    std::string& s = c.*member;
    if constexpr (Ar::reading) {
      std::vector<u8> bytes;
      ar.value(name, bytes);
      s.assign(bytes.begin(), bytes.end());
    } else {
      ar.bytes(name, std::span<const u8>(
                         reinterpret_cast<const u8*>(s.data()), s.size()));
    }
  }
};

// A vector of flat records packed into one bytes field.
template <class C, class R, class Layout>
struct Packed {
  const char* name;
  std::vector<R> C::*member;
  Layout layout;
  template <class Ar, class... Ctx>
  void operator()(Ar& ar, C& c, Ctx&...) const {
    std::vector<R>& rs = c.*member;
    constexpr std::size_t kSize = packed_size(Layout{});
    std::vector<u8> blob;
    if constexpr (!Ar::reading) {
      blob.reserve(rs.size() * kSize);
      for (const R& r : rs) pack(blob, r, layout);
    }
    ar.value(name, blob);
    if constexpr (Ar::reading) {
      ar.check(blob.size() % kSize == 0, "packed record length");
      rs.clear();
      rs.reserve(blob.size() / kSize);
      for (const u8* p = blob.data(); p != blob.data() + blob.size();) {
        unpack(p, rs.emplace_back(), layout);
      }
    }
  }
};

// A shared object (channel, pipe, file node, listen socket), written as
// its index in the object table of its type.
template <class C, class T>
struct SharedRef {
  const char* name;
  std::shared_ptr<T> C::*member;
  template <class Ar, class Objects>
  void operator()(Ar& ar, C& c, Objects& objects) const {
    objects.ref(ar, name, c.*member);
  }
};

template <class C, class M>
constexpr Plain<C, M> m(const char* name, M C::*member) {
  return {name, member};
}
template <class C, class M>
constexpr Matched<C, M> matched(const char* name, M C::*member) {
  return {name, member};
}
template <class C, class M>
constexpr Optional<C, M> opt(const char* has_name, const char* name,
                             M C::*member) {
  return {has_name, name, member};
}
template <class C>
constexpr Blob<C> blob(const char* name, std::string C::*member) {
  return {name, member};
}
template <class C, class R, class... M>
constexpr auto packed(const char* name, std::vector<R> C::*member,
                      M R::*... layout) {
  return Packed<C, R, std::tuple<M R::*...>>{name, member, {layout...}};
}
template <class C, class T>
constexpr SharedRef<C, T> ref(const char* name,
                              std::shared_ptr<T> C::*member) {
  return {name, member};
}
template <class... E>
constexpr std::tuple<E...> table(E... entries) {
  return {entries...};
}

template <class Ar, class C, class Table, class... Ctx>
void members(Ar& ar, C& c, const Table& t, Ctx&... ctx) {
  std::apply([&](const auto&... e) { (e(ar, c, ctx...), ...); }, t);
}

// A record as one group holding its members.
template <class Ar, class C, class Table, class... Ctx>
void record(Ar& ar, const char* group, C& c, const Table& t, Ctx&... ctx) {
  ar.begin(group);
  members(ar, c, t, ctx...);
  ar.end();
}

// --- shapes -----------------------------------------------------------------

// A counted list: the element count, then `each(element)` per element.
// A count over `max` is refused before the container is sized by it.
template <class Ar, class C, class Each>
void counted(Ar& ar, const char* count_name, C& c, u64 max, Each&& each) {
  u32 n = static_cast<u32>(c.size());
  ar.value(count_name, n);
  if constexpr (Ar::reading) {
    if (n > max) ar.fail(std::string("implausible ") + count_name + " count");
    c.resize(n);
  }
  for (auto& e : c) each(e);
}

// A keyed container: the entry count, then per entry, in ascending key
// order, one group holding the key and then `value(mapped)`. Unordered
// maps are sorted on save so save -> restore -> save is byte-identical.
// A key repeated on restore is refused, naming the record.
template <class Ar, class Map, class Value>
void keyed(Ar& ar, const char* count_name, const char* group,
           const char* key_name, Map& map, Value&& value) {
  using K = typename Map::key_type;
  using V = typename Map::mapped_type;
  u32 n = static_cast<u32>(map.size());
  ar.value(count_name, n);
  if constexpr (Ar::reading) {
    map.clear();
    for (u32 i = 0; i < n; ++i) {
      ar.begin(group);
      K key{};
      V v{};
      field(ar, key_name, key);
      value(v);
      if (!map.emplace(std::move(key), std::move(v)).second) {
        ar.fail(std::string("duplicate '") + group + "' key");
      }
      ar.end();
    }
  } else {
    const auto put = [&](const K& key, V& v) {
      ar.begin(group);
      K k = key;
      field(ar, key_name, k);
      value(v);
      ar.end();
    };
    if constexpr (requires { typename Map::key_compare; }) {
      for (auto& [key, v] : map) put(key, v);
    } else {
      std::vector<typename Map::value_type*> sorted;
      sorted.reserve(map.size());
      for (auto& kv : map) sorted.push_back(&kv);
      std::ranges::sort(sorted, {}, [](const auto* kv) { return kv->first; });
      for (auto* kv : sorted) put(kv->first, kv->second);
    }
  }
}

// Calls fn(std::integral_constant<std::size_t, I>{}) for I == index < N.
template <std::size_t N, class Fn>
void with_index(std::size_t index, Fn&& fn) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((index == I ? fn(std::integral_constant<std::size_t, I>{}) : void()),
     ...);
  }(std::make_index_sequence<N>{});
}

// A tagged variant: the index of the alternative it holds as the u8
// `tag`, then that alternative's members. `alternatives` holds one member
// table per alternative.
template <class Ar, class V, class Alternatives, class... Ctx>
void tagged(Ar& ar, const char* tag, V& v, const Alternatives& alternatives,
            Ctx&... ctx) {
  constexpr std::size_t kCount = std::variant_size_v<V>;
  static_assert(std::tuple_size_v<Alternatives> == kCount,
                "one member table per alternative");
  u8 index = static_cast<u8>(v.index());
  ar.value(tag, index);
  ar.check(index < kCount, "variant tag out of range");
  with_index<kCount>(index, [&](auto i) {
    if constexpr (Ar::reading) {
      members(ar, v.template emplace<i>(), std::get<i>(alternatives), ctx...);
    } else {
      members(ar, std::get<i>(v), std::get<i>(alternatives), ctx...);
    }
  });
}

// The tripwires below hold on the one toolchain CI builds with.
constexpr bool kPinnedLayout =
#if defined(__GLIBCXX__) && defined(__x86_64__)
    true;
#else
    false;
#endif

}  // namespace

// The tripwire of a type whose members the schema reads: every member of
// T, named in declaration order, and T's size. A new member stops the
// build until it is serialized or named here as derived: the structured
// binding then gets one name too few ("N names provided ... decomposes
// into N+1 elements"), on any toolchain. The size, checked on libstdc++
// on x86-64 (the toolchain CI builds with), also catches a member whose
// new type changes the size of T, and with it the member's wire form.
#define SNAPSHOT_TRIPWIRE(T, size, ...)                                     \
  static_assert(!kPinnedLayout || sizeof(T) == (size),                      \
                #T " changed size: serialize the new member in "            \
                "snapshot.cc or list it there as derived, then update "     \
                "the size");                                                \
  static void members_of(T& x) { [[maybe_unused]] auto& [__VA_ARGS__] = x; }

// --- the records ------------------------------------------------------------
//
// Each table lists a record's members in wire order. The tripwire next to
// it names all of the type's members; its comment says which are not in
// the table and why: host-side state, values derived on restore, and
// members the functions below serialize by hand.

struct Access::Schema {
  using Config = kernel::KernelConfig;
  using Cost = metrics::CostModel;
  using Kernel = kernel::Kernel;
  using Process = kernel::Process;
  using Injector = inject::FaultInjector;
  using Watchdog = invariant::InvariantWatchdog;

  // Fixed by the restoring kernel's construction; restore compares.
  static constexpr auto kKernelConfig = table(
      matched("phys_frames", &Config::phys_frames),
      matched("require_signatures", &Config::require_signatures),
      matched("signing_key", &Config::signing_key),
      matched("stack_randomization", &Config::stack_randomization),
      matched("rng_seed", &Config::rng_seed),
      matched("stack_pages", &Config::stack_pages),
      matched("software_tlb", &Config::software_tlb),
      matched("tlb_entries", &Config::tlb_entries),
      matched("tlb_ways", &Config::tlb_ways),
      matched("eager_load", &Config::eager_load),
      matched("record_syscall_trace", &Config::record_syscall_trace),
      matched("capture_exit_digest", &Config::capture_exit_digest),
      matched("trace", &Config::trace),
      matched("trace_ring_capacity", &Config::trace_ring_capacity));
  // By hand: cost (its own table), cores (the resolved count is compared).
  // Host-side: dbt.
  SNAPSHOT_TRIPWIRE(Config, 200, phys_frames, cost, require_signatures,
                    signing_key, stack_randomization, rng_seed, stack_pages,
                    software_tlb, tlb_entries, tlb_ways, eager_load,
                    record_syscall_trace, capture_exit_digest, trace,
                    trace_ring_capacity, dbt, cores);

  static constexpr auto kCostModel = table(
      matched("cycles_per_instr", &Cost::cycles_per_instr),
      matched("tlb_hit", &Cost::tlb_hit), matched("tlb_walk", &Cost::tlb_walk),
      matched("trap_cost", &Cost::trap_cost),
      matched("syscall_cost", &Cost::syscall_cost),
      matched("kernel_touch", &Cost::kernel_touch),
      matched("demand_page", &Cost::demand_page),
      matched("cow_copy", &Cost::cow_copy),
      matched("icache_sync", &Cost::icache_sync),
      matched("soft_tlb_fill", &Cost::soft_tlb_fill),
      matched("context_switch", &Cost::context_switch),
      matched("timeslice_instructions", &Cost::timeslice_instructions),
      matched("ipi", &Cost::ipi),
      matched("net_bytes_per_cycle", &Cost::net_bytes_per_cycle),
      matched("net_request_latency", &Cost::net_request_latency));
  SNAPSHOT_TRIPWIRE(Cost, 120, cycles_per_instr, tlb_hit, tlb_walk, trap_cost,
                    syscall_cost, kernel_touch, demand_page, cow_copy,
                    icache_sync, soft_tlb_fill, context_switch,
                    timeslice_instructions, ipi, net_bytes_per_cycle,
                    net_request_latency);

  // By hand: every member (free list and frames). Host-side: fault_hooks_.
  SNAPSHOT_TRIPWIRE(arch::PhysicalMemory, 104, num_frames_, bytes_,
                    generations_, refcounts_, free_list_, frames_in_use_,
                    fault_hooks_);

  static constexpr auto kTlbEntry = table(
      m("vpn", &arch::TlbEntry::vpn), m("pfn", &arch::TlbEntry::pfn),
      m("user", &arch::TlbEntry::user),
      m("writable", &arch::TlbEntry::writable),
      m("no_exec", &arch::TlbEntry::no_exec),
      m("valid", &arch::TlbEntry::valid), m("stamp", &arch::TlbEntry::stamp));
  SNAPSHOT_TRIPWIRE(arch::TlbEntry, 24, vpn, pfn, user, writable, no_exec, valid,
                    stamp);

  static constexpr auto kTlb =
      table(matched("ways", &arch::Tlb::ways_),
            matched("sets", &arch::Tlb::num_sets_),
            m("clock", &arch::Tlb::clock_), m("version", &arch::Tlb::version_));
  // By hand: entries_. Derived: last_touched_ (set before every use).
  SNAPSHOT_TRIPWIRE(arch::Tlb, 56, ways_, num_sets_, clock_, version_,
                    last_touched_, entries_);

  static constexpr auto kMmu =
      table(m("cr3", &arch::Mmu::cr3_),
            m("walk_failure_period", &arch::Mmu::walk_failure_period_),
            m("walk_fill_count", &arch::Mmu::walk_fill_count_),
            matched("software_tlb", &arch::Mmu::software_tlb_));
  // By hand: itlb_, dtlb_. Host-side: pm_, stats_, cost_, trace_,
  // fault_hooks_, the three memos (restart cold), data_memo_enabled_,
  // inject_memo_lru_bug_.
  SNAPSHOT_TRIPWIRE(arch::Mmu, 272, pm_, stats_, cost_, trace_, fault_hooks_,
                    itlb_, dtlb_, fetch_memo_, read_memo_, write_memo_,
                    data_memo_enabled_, inject_memo_lru_bug_, cr3_,
                    walk_failure_period_, walk_fill_count_, software_tlb_);

  // By hand: regs_. Host-side: mmu_, stats_, cost_, trace_, the decode and
  // block caches (restart cold) and their enable flags.
  SNAPSHOT_TRIPWIRE(arch::Cpu, 144, mmu_, stats_, cost_, trace_, regs_, dcache_,
                    bcache_, dcache_enabled_, block_enabled_);
  SNAPSHOT_TRIPWIRE(arch::Regs, 40, r, pc, flags);

  // Every counter, through metrics::kCounters (whose own static_assert is
  // the Stats tripwire).

  static constexpr auto kChannel =
      table(m("to_guest", &kernel::Channel::to_guest_),
            m("to_host", &kernel::Channel::to_host_),
            m("host_closed", &kernel::Channel::host_closed_),
            m("bytes_to_host", &kernel::Channel::bytes_to_host_));
  SNAPSHOT_TRIPWIRE(kernel::Channel, 176, to_guest_, to_host_, host_closed_,
                    bytes_to_host_);

  static constexpr auto kPipe =
      table(m("buf", &kernel::Pipe::buf_), m("readers", &kernel::Pipe::readers_),
            m("writers", &kernel::Pipe::writers_),
            m("read_waiters", &kernel::Pipe::read_waiters),
            m("write_waiters", &kernel::Pipe::write_waiters));
  SNAPSHOT_TRIPWIRE(kernel::Pipe, 248, read_waiters, write_waiters, buf_,
                    readers_, writers_);

  static constexpr auto kFileNode = table(m("data", &kernel::FileNode::bytes));
  SNAPSHOT_TRIPWIRE(kernel::FileNode, 24, bytes);
  // By hand: nodes_ (a keyed container).
  SNAPSHOT_TRIPWIRE(kernel::FileSystem, 48, nodes_);

  static constexpr auto kListenSock =
      table(m("port", &kernel::ListenSock::port),
            m("capacity", &kernel::ListenSock::capacity),
            m("refs", &kernel::ListenSock::refs));
  // By hand: backlog (a counted list), accept_waiters (after it).
  SNAPSHOT_TRIPWIRE(kernel::ListenSock, 176, port, capacity, refs, backlog,
                    accept_waiters);

  // A queued connection is the server's FdSock; its wire names say which
  // way each pipe runs (rx is client->server, tx server->client).
  static constexpr auto kBacklogConn =
      table(ref("c2s", &kernel::FdSock::rx), ref("s2c", &kernel::FdSock::tx));

  static constexpr auto kVma = table(
      m("start", &kernel::Vma::start), m("end", &kernel::Vma::end),
      m("prot", &kernel::Vma::prot), m("kind", &kernel::Vma::kind),
      m("name", &kernel::Vma::name),
      opt("has_backing", "backing", &kernel::Vma::backing),
      m("backing_offset", &kernel::Vma::backing_offset));
  SNAPSHOT_TRIPWIRE(kernel::Vma, 72, start, end, prot, kind, name, backing,
                    backing_offset);

  static constexpr auto kSplitPair =
      table(m("code_frame", &kernel::SplitPair::code_frame),
            m("data_frame", &kernel::SplitPair::data_frame));
  SNAPSHOT_TRIPWIRE(kernel::SplitPair, 8, code_frame, data_frame);

  // By hand: root_ (adopted on restore), brk_end, vmas_, split_pages_.
  // Derived: pm_, destroyed_.
  SNAPSHOT_TRIPWIRE(kernel::AddressSpace, 96, brk_end, pm_, root_, destroyed_,
                    vmas_, split_pages_);

  // One member table per alternative, in variant order.
  static constexpr auto kFdEntry = table(
      table(),  // a free slot
      table(ref("chan", &kernel::FdChannel::chan)), table(),  // FdConsole
      table(ref("pipe", &kernel::FdPipeRead::pipe)),
      table(ref("pipe", &kernel::FdPipeWrite::pipe)),
      table(ref("file", &kernel::FdFile::node),
            m("offset", &kernel::FdFile::offset),
            m("writable", &kernel::FdFile::writable)),
      table(ref("sock", &kernel::FdListen::sock)),
      table(ref("rx", &kernel::FdSock::rx), ref("tx", &kernel::FdSock::tx)));
  SNAPSHOT_TRIPWIRE(kernel::FdChannel, 16, chan);
  SNAPSHOT_TRIPWIRE(kernel::FdPipeRead, 16, pipe);
  SNAPSHOT_TRIPWIRE(kernel::FdPipeWrite, 16, pipe);
  SNAPSHOT_TRIPWIRE(kernel::FdFile, 24, node, offset, writable);
  SNAPSHOT_TRIPWIRE(kernel::FdListen, 16, sock);
  SNAPSHOT_TRIPWIRE(kernel::FdSock, 32, rx, tx);
  static_assert(std::is_empty_v<kernel::FdConsole>);

  static constexpr auto kWaitReason =
      table(table(),  // WaitNone
            table(m("fd", &kernel::WaitReadFd::fd)),
            table(m("fd", &kernel::WaitWriteFd::fd)),
            table(m("pid", &kernel::WaitChild::pid)),
            table(m("fd_a", &kernel::WaitSelect2::fd_a),
                  m("fd_b", &kernel::WaitSelect2::fd_b)),
            table());  // WaitSleep
  SNAPSHOT_TRIPWIRE(kernel::WaitReadFd, 4, fd);
  SNAPSHOT_TRIPWIRE(kernel::WaitWriteFd, 4, fd);
  SNAPSHOT_TRIPWIRE(kernel::WaitChild, 4, pid);
  SNAPSHOT_TRIPWIRE(kernel::WaitSelect2, 8, fd_a, fd_b);
  static_assert(std::is_empty_v<kernel::WaitNone> &&
                std::is_empty_v<kernel::WaitSleep>);

  // A process record is this head, its address space, its fd table and
  // wait reason (by hand, in that order), then the tail.
  static constexpr auto kProcessHead = table(
      m("pid", &Process::pid), m("parent", &Process::parent),
      m("name", &Process::name), m("state", &Process::state),
      m("exit_kind", &Process::exit_kind), m("exit_code", &Process::exit_code),
      m("regs", &Process::regs));
  // The timer wheel is never serialized: wait_deadline is the per-process
  // authority, and restore rebuilds the wheel from it.
  static constexpr auto kProcessTail = table(
      m("retry_syscall", &Process::retry_syscall),
      m("wait_deadline", &Process::wait_deadline),
      m("timed_out", &Process::timed_out),
      m("exit_waiters", &Process::exit_waiters),
      opt("has_pending_split", "pending_split_vaddr",
          &Process::pending_split_vaddr),
      m("shell_spawned", &Process::shell_spawned),
      opt("has_recovery", "recovery_handler", &Process::recovery_handler),
      blob("console", &Process::console),
      packed("syscall_trace", &Process::syscall_trace,
             &kernel::SyscallRecord::num, &kernel::SyscallRecord::a1,
             &kernel::SyscallRecord::a2, &kernel::SyscallRecord::a3),
      opt("has_exit_digest", "exit_digest", &Process::exit_digest),
      m("free_fds", &Process::free_fds),
      m("fd_alloc_probes", &Process::fd_alloc_probes));
  // Derived: rq_next, rq_prev, on_runqueue, rq_core (restore re-queues
  // through RunQueue::push_back).
  SNAPSHOT_TRIPWIRE(Process, 368, pid, parent, name, state, exit_kind, exit_code,
                    rq_next, rq_prev, on_runqueue, rq_core, regs, as, fds,
                    waiting, retry_syscall, wait_deadline, timed_out,
                    exit_waiters, pending_split_vaddr, shell_spawned,
                    recovery_handler, console, syscall_trace, exit_digest,
                    free_fds, fd_alloc_probes);
  SNAPSHOT_TRIPWIRE(kernel::SyscallRecord, 16, num, a1, a2, a3);

  static constexpr auto kCoreSched =
      table(m("slice_used", &Kernel::Core::slice_used),
            opt("has_current", "current", &Kernel::Core::current),
            opt("has_last_running", "last_running",
                &Kernel::Core::last_running));
  // By hand: id (compared), mmu, cpu, runqueue (re-queued in FIFO order).
  SNAPSHOT_TRIPWIRE(Kernel::Core, 472, id, mmu, cpu, runqueue, current,
                    last_running, slice_used);

  static constexpr auto kPendingShootdown =
      table(m("vpn", &Kernel::PendingShootdown::vpn),
            m("root", &Kernel::PendingShootdown::root),
            m("core_mask", &Kernel::PendingShootdown::core_mask));
  SNAPSHOT_TRIPWIRE(Kernel::PendingShootdown, 12, vpn, root, core_mask);

  static constexpr auto kKernelSched =
      table(m("next_pid", &Kernel::next_pid_),
            matched("live_procs", &Kernel::live_procs_),
            m("rng_state", &Kernel::rng_state_),
            m("active_core", &Kernel::active_core_),
            m("quantum_used", &Kernel::quantum_used_));
  // By hand: cfg_, pm_, stats_, cores_, pending_shootdowns_, trace_, fs_,
  // images_, procs_, channel_waiters_, klog_, detections_. Compared:
  // engine_ (by name), live_procs_ (recounted from the process states).
  // Derived: trace_ptr_ (from config.trace), timers_ (from each
  // wait_deadline), listen_ports_ (from the listen-socket table). Host
  // attachments: fault_source_, step_observer_, shell_input_logger.
  SNAPSHOT_TRIPWIRE(Kernel, 1776, shell_input_logger, cfg_, pm_, stats_, cores_,
                    active_core_, quantum_used_, pending_shootdowns_, trace_,
                    trace_ptr_, fs_, engine_, fault_source_, step_observer_,
                    images_, procs_, live_procs_, channel_waiters_, timers_,
                    listen_ports_, next_pid_, rng_state_, klog_,
                    detections_);

  static constexpr auto kDetectionEvent = table(
      m("pid", &kernel::DetectionEvent::pid),
      m("process", &kernel::DetectionEvent::process),
      m("eip", &kernel::DetectionEvent::eip),
      m("cycles", &kernel::DetectionEvent::cycles),
      m("mode", &kernel::DetectionEvent::mode),
      m("shellcode", &kernel::DetectionEvent::shellcode),
      m("disassembly", &kernel::DetectionEvent::disassembly));
  SNAPSHOT_TRIPWIRE(kernel::DetectionEvent, 144, pid, process, eip, cycles, mode,
                    shellcode, disassembly);

  static constexpr auto kTraceSink = table(m("pid", &trace::TraceSink::pid_));
  // By hand: ring_, prof_. Derived: stats_ (wired at construction), core_
  // (announced at every dispatch), enabled_ (from config.trace).
  SNAPSHOT_TRIPWIRE(trace::TraceSink, 640, ring_, prof_, stats_, pid_, core_,
                    enabled_);
  // By hand: buf_ and size_ (oldest to newest), dropped_. Derived: head_
  // (0 after restore; rotation is unobservable through the ring's API).
  SNAPSHOT_TRIPWIRE(trace::RingBuffer<trace::Event>, 48, buf_, head_, size_,
                    dropped_);

  static constexpr auto kEvent =
      std::tuple{&trace::Event::cycles, &trace::Event::pid,
                 &trace::Event::vaddr, &trace::Event::info,
                 &trace::Event::kind, &trace::Event::arg, &trace::Event::core};
  SNAPSHOT_TRIPWIRE(trace::Event, 24, cycles, pid, vaddr, info, kind, arg, core);

  static constexpr auto kProfiler =
      table(m("event_counts", &trace::Profiler::event_counts_),
            m("flush_epoch", &trace::Profiler::flush_epoch_),
            m("total_cycles", &trace::Profiler::total_cycles_));
  // By hand, before the table: buckets_, fills_, pending_step_ (keyed
  // containers). After it: scope_, which must be closed.
  SNAPSHOT_TRIPWIRE(trace::Profiler, 576, buckets_, fills_, pending_step_,
                    event_counts_, flush_epoch_, total_cycles_, scope_);

  static constexpr auto kFill =
      table(m("epoch", &trace::Profiler::Fill::epoch),
            m("invalidated", &trace::Profiler::Fill::invalidated));
  SNAPSHOT_TRIPWIRE(trace::Profiler::Fill, 16, epoch, invalidated);

  static constexpr auto kScheduledFault =
      table(m("after", &inject::ScheduledFault::after_instruction),
            m("kind", &inject::ScheduledFault::kind),
            m("arg", &inject::ScheduledFault::arg));
  SNAPSHOT_TRIPWIRE(inject::ScheduledFault, 16, after_instruction, kind, arg);
  SNAPSHOT_TRIPWIRE(inject::FaultSchedule, 32, seed, faults);

  static constexpr auto kFaultRecord =
      table(m("fired", &Injector::Record::fired),
            m("fired_at", &Injector::Record::fired_at),
            opt("has_outcome", "outcome", &Injector::Record::outcome));
  // By hand: fault (a copy of the schedule entry).
  SNAPSHOT_TRIPWIRE(Injector::Record, 40, fault, fired, fired_at, outcome);

  static constexpr auto kArmed =
      table(m("armed_drop_flush", &Injector::armed_drop_flush_),
            m("armed_drop_invlpg", &Injector::armed_drop_invlpg_),
            m("armed_alloc_fail", &Injector::armed_alloc_fail_),
            m("armed_lost_trap", &Injector::armed_lost_trap_),
            m("armed_dup_trap", &Injector::armed_dup_trap_),
            m("armed_preempt", &Injector::armed_preempt_),
            m("armed_tf_clear", &Injector::armed_tf_clear_),
            m("armed_drop_ipi", &Injector::armed_drop_ipi_),
            m("armed_ack_no_flush", &Injector::armed_ack_no_flush_),
            m("armed_stall", &Injector::armed_stall_),
            m("armed_drop_conn", &Injector::armed_drop_conn_));
  // By hand: schedule_, records_, next_ (before kArmed). Compared:
  // kernel_.
  SNAPSHOT_TRIPWIRE(Injector, 352, schedule_, records_, kernel_, next_,
                    armed_drop_flush_, armed_drop_invlpg_, armed_alloc_fail_,
                    armed_lost_trap_, armed_dup_trap_, armed_preempt_,
                    armed_tf_clear_, armed_drop_ipi_, armed_ack_no_flush_,
                    armed_stall_, armed_drop_conn_);

  static constexpr auto kWatchdogAudit =
      table(m("last_pid", &Watchdog::last_pid_),
            m("steps_since_audit", &Watchdog::steps_since_audit_),
            m("degraded_since_resolve", &Watchdog::degraded_since_resolve_));
  static constexpr auto kWatchdogTotals =
      table(m("violations", &Watchdog::violations_),
            m("recoveries", &Watchdog::recoveries_),
            m("degradations", &Watchdog::degradations_),
            m("breaches", &Watchdog::breaches_));
  // By hand: the two per-core version vectors (before kWatchdogAudit),
  // repairs_ (a keyed container, between the tables). Derived:
  // scan_vpns_ (scratch). Host attachment: injector_.
  SNAPSHOT_TRIPWIRE(Watchdog, 168, injector_, core_itlb_versions_,
                    core_dtlb_versions_, last_pid_, steps_since_audit_,
                    degraded_since_resolve_, repairs_, scan_vpns_,
                    violations_, recoveries_, degradations_, breaches_);

  // --- shared objects -------------------------------------------------------

  // Channels, pipes, file nodes and listen sockets, one table per type in
  // a deterministic discovery order. A reference to one is its index in
  // the table of its type.
  struct Objects {
    std::tuple<std::vector<std::shared_ptr<kernel::Channel>>,
               std::vector<std::shared_ptr<kernel::Pipe>>,
               std::vector<std::shared_ptr<kernel::FileNode>>,
               std::vector<std::shared_ptr<kernel::ListenSock>>>
        tables;
    std::map<const void*, u32> ids;  // save side: object -> index

    template <class T>
    std::vector<std::shared_ptr<T>>& of() {
      return std::get<std::vector<std::shared_ptr<T>>>(tables);
    }

    template <class Ar, class T>
    void ref(Ar& ar, const char* name, std::shared_ptr<T>& p) {
      u32 id = Ar::reading ? 0 : ids.at(p.get());
      ar.value(name, id);
      if constexpr (Ar::reading) {
        ar.check(id < of<T>().size(), "reference to an unknown shared object");
        p = of<T>()[id];
      }
    }

    template <class T>
    void add(const std::shared_ptr<T>& p) {
      if (!p || !ids.emplace(p.get(), static_cast<u32>(of<T>().size())).second) {
        return;
      }
      of<T>().push_back(p);
      if constexpr (std::is_same_v<T, kernel::ListenSock>) {
        // Queued-but-unaccepted connections hold pipe ends reachable only
        // through the backlog (the client may already have closed its fd).
        for (kernel::FdSock& conn : p->backlog) add_refs(conn, kBacklogConn);
      }
    }

    // Adds every object the shared references of `table` reach from `c`.
    template <class C, class Table>
    void add_refs(C& c, const Table& t) {
      std::apply([&](const auto&... e) { (add_ref(c, e), ...); }, t);
    }
    template <class C, class T>
    void add_ref(C& c, const SharedRef<C, T>& e) {
      add(c.*e.member);
    }
    template <class C, class E>
    void add_ref(C&, const E&) {}
  };

  // Discovery order: filesystem nodes in path order, then every process
  // in pid order, its fds in slot order (channels, pipes, listen sockets
  // with their backlogs, and unlinked-but-open file nodes).
  static Objects collect(Kernel& k) {
    Objects o;
    for (const auto& [path, node] : k.fs_.nodes_) o.add(node);
    for (const auto& up : k.procs_) {
      for (kernel::FdEntry& e : up->fds) {
        with_index<std::variant_size_v<kernel::FdEntry>>(
            e.index(), [&](auto i) {
              o.add_refs(std::get<i>(e), std::get<i>(kFdEntry));
            });
      }
    }
    return o;
  }

  // Restore builds each object before its record is read.
  template <class T, class Ar, class Each>
  static void object_table(Ar& ar, const char* count_name, Objects& o,
                           Each&& each) {
    counted(ar, count_name, o.of<T>(), kMaxCount,
            [&](std::shared_ptr<T>& p) {
              if constexpr (Ar::reading) p = std::make_shared<T>();
              each(*p);
            });
  }

  template <class Ar>
  static void objects(Ar& ar, Objects& o) {
    ar.begin("objects");
    object_table<kernel::Channel>(ar, "channels", o, [&](auto& c) {
      record(ar, "chan", c, kChannel);
    });
    object_table<kernel::Pipe>(ar, "pipes", o, [&](kernel::Pipe& p) {
      record(ar, "pipe", p, kPipe);
      ar.check(p.buf_.size() <= kernel::Pipe::kCapacity, "pipe over capacity");
    });
    object_table<kernel::FileNode>(ar, "files", o, [&](auto& f) {
      record(ar, "file", f, kFileNode);
    });
    object_table<kernel::ListenSock>(
        ar, "socks", o, [&](kernel::ListenSock& s) {
          ar.begin("sock");
          members(ar, s, kListenSock);
          // The backlog in queue (FIFO) order.
          counted(ar, "backlog", s.backlog, s.capacity, [&](auto& conn) {
            record(ar, "conn", conn, kBacklogConn, o);
          });
          field(ar, "accept_waiters", s.accept_waiters);
          ar.end();
        });
    ar.end();
  }

  // --- machine components ---------------------------------------------------

  template <class Ar>
  static void config(Ar& ar, Kernel& k) {
    ar.begin("config");
    must_match(ar, "engine", k.engine_->name());
    members(ar, k.cfg_, kKernelConfig);
    // The RESOLVED core count (cfg_.cores may be 0 = auto): the restoring
    // kernel must have built the same number of cores.
    must_match(ar, "cores", static_cast<u32>(k.cores_.size()));
    record(ar, "cost", k.cfg_.cost, kCostModel);
    ar.end();
  }

  template <class Ar>
  static void phys(Ar& ar, arch::PhysicalMemory& pm) {
    ar.begin("phys");
    const u32 nf = pm.num_frames_;
    must_match(ar, "num_frames", nf);
    field(ar, "frames_in_use", pm.frames_in_use_);
    field(ar, "free_list", pm.free_list_);
    if constexpr (Ar::reading) {
      ar.check(pm.free_list_.size() <= nf, "free list longer than memory");
      for (const u32 pfn : pm.free_list_) {
        ar.check(pfn < nf, "free-list pfn out of range");
      }
      std::ranges::fill(pm.refcounts_, 0u);
    }
    // Only frames with a live reference carry bytes: alloc_frame() zeroes
    // a frame on allocation, so free-frame contents are unobservable, and
    // free-frame generations only feed host caches that restore drops
    // cold.
    u32 used = Ar::reading ? 0
                           : static_cast<u32>(
                                 nf - std::ranges::count(pm.refcounts_, 0u));
    ar.value("used_frames", used);
    ar.check(used == pm.frames_in_use_, "frames_in_use disagrees with payload");
    ar.check(u64{used} + pm.free_list_.size() == nf,
             "free list and used frames do not cover memory");
    const auto frame = [&](u32 pfn) {
      ar.begin("frame");
      ar.value("pfn", pfn);
      ar.check(pfn < nf, "frame pfn out of range");
      // Restore zeroed every refcount above; a second record is corrupt.
      ar.check(!Ar::reading || pm.refcounts_[pfn] == 0,
               "frame serialized twice");
      field(ar, "refcount", pm.refcounts_[pfn]);
      ar.check(pm.refcounts_[pfn] > 0, "serialized frame with zero refcount");
      field(ar, "generation", pm.generations_[pfn]);
      ar.bytes_into("data",
                    std::span<u8>(pm.bytes_.get() +
                                      static_cast<std::size_t>(pfn) * kPageSize,
                                  kPageSize));
      ar.end();
    };
    if constexpr (Ar::reading) {
      for (u32 i = 0; i < used; ++i) frame(0);  // pfn read from the stream
      for (const u32 pfn : pm.free_list_) {
        ar.check(pm.refcounts_[pfn] == 0, "free-list frame also serialized");
      }
    } else {
      for (u32 pfn = 0; pfn < nf; ++pfn) {
        if (pm.refcounts_[pfn] != 0) frame(pfn);
      }
    }
    ar.end();
  }

  template <class Ar>
  static void tlb(Ar& ar, const char* name, arch::Tlb& t) {
    ar.begin(name);
    members(ar, t, kTlb);
    for (arch::TlbEntry& e : t.entries_) record(ar, "entry", e, kTlbEntry);
    ar.end();
  }

  template <class Ar>
  static void mmu(Ar& ar, arch::Mmu& m) {
    ar.begin("mmu");
    members(ar, m, kMmu);
    tlb(ar, "itlb", m.itlb_);
    tlb(ar, "dtlb", m.dtlb_);
    ar.end();
    if constexpr (Ar::reading) {
      // Host-side translation memos restart cold (billing-identical: a
      // memo hit bills exactly the set scan it replaces).
      m.drop_fetch_memo();
      m.drop_data_memos();
    }
  }

  template <class Ar>
  static void address_space(Ar& ar, arch::PhysicalMemory& pm,
                            std::unique_ptr<kernel::AddressSpace>& as) {
    bool has_as = as != nullptr;
    ar.value("has_as", has_as);
    if (!has_as) return;
    ar.begin("as");
    u32 root = Ar::reading ? 0 : as->root_;
    ar.value("root", root);
    ar.check(root < pm.num_frames_, "address-space root out of range");
    if constexpr (Ar::reading) {
      // Adopt the root that already lives in restored physical memory.
      as.reset(new kernel::AddressSpace(pm, root,
                                        kernel::AddressSpace::AdoptRoot{}));
    }
    field(ar, "brk_end", as->brk_end);
    counted(ar, "vmas", as->vmas_, kMaxCount,
            [&](kernel::Vma& v) { record(ar, "vma", v, kVma); });
    keyed(ar, "splits", "split", "vpn", as->split_pages_,
          [&](kernel::SplitPair& pair) {
            members(ar, pair, kSplitPair);
            ar.check(pair.code_frame < pm.num_frames_ &&
                         pair.data_frame < pm.num_frames_,
                     "split pair frame out of range");
          });
    ar.end();
  }

  template <class Ar>
  static void process(Ar& ar, Kernel& k, Process& p, Objects& o) {
    ar.begin("proc");
    members(ar, p, kProcessHead);
    address_space(ar, k.pm_, p.as);
    counted(ar, "fds", p.fds, kMaxCount, [&](kernel::FdEntry& e) {
      ar.begin("fd");
      tagged(ar, "tag", e, kFdEntry, o);
      ar.end();
    });
    tagged(ar, "wait", p.waiting, kWaitReason);
    members(ar, p, kProcessTail);
    ar.end();
  }

  template <class Ar>
  static void procs(Ar& ar, Kernel& k, Objects& o) {
    ar.begin("procs");
    counted(ar, "count", k.procs_, u64{1} << 24,
            [&](std::unique_ptr<Process>& up) {
              if constexpr (Ar::reading) up = std::make_unique<Process>();
              process(ar, k, *up, o);
              const auto slot = static_cast<u32>(&up - k.procs_.data());
              ar.check(up->pid == slot + 1, "process slab out of pid order");
              if constexpr (Ar::reading) k.live_procs_ += up->alive() ? 1 : 0;
            });
    ar.end();
  }

  template <class Ar>
  static void sched(Ar& ar, Kernel& k) {
    ar.begin("sched");
    members(ar, k, kKernelSched);
    ar.check(k.next_pid_ == k.procs_.size() + 1,
             "next_pid disagrees with slab");
    ar.check(k.active_core_ < k.cores_.size(), "active core out of range");
    const auto known = [&](u32 pid) {
      return pid >= 1 && pid <= k.procs_.size();
    };
    for (auto& cp : k.cores_) {
      ar.begin("core_sched");
      members(ar, *cp, kCoreSched);
      ar.check((!cp->current || known(*cp->current)) &&
                   (!cp->last_running || known(*cp->last_running)),
               "pid out of range");
      // The runqueue in FIFO order. Restore re-pushes through the normal
      // path, so the intrusive links and the on_runqueue and rq_core
      // flags are rebuilt consistently.
      std::vector<u32> rq;
      if constexpr (!Ar::reading) {
        for (kernel::Process* p = cp->runqueue.head; p != nullptr;
             p = p->rq_next) {
          rq.push_back(p->pid);
        }
      }
      field(ar, "runqueue", rq);
      if constexpr (Ar::reading) {
        for (const u32 pid : rq) {
          kernel::Process* p = k.process(pid);
          ar.check(p != nullptr, "runqueue references unknown pid");
          ar.check(p->state == kernel::ProcState::kRunnable,
                   "runqueue entry not runnable");
          ar.check(!p->on_runqueue, "pid queued twice");
          cp->runqueue.push_back(*p);
        }
      }
      ar.end();
    }
    // Shootdowns whose IPI retries were exhausted (armed drop faults); the
    // watchdog completes them. Empty except mid-fault-campaign.
    counted(ar, "pending_shootdowns", k.pending_shootdowns_, kMaxCount,
            [&](auto& ps) { record(ar, "shootdown", ps, kPendingShootdown); });
    field(ar, "channel_waiters", k.channel_waiters_);
    for (const u32 pid : k.channel_waiters_) {
      ar.check(known(pid), "channel waiter out of range");
    }
    ar.end();
  }

  template <class Ar>
  static void logs(Ar& ar, Kernel& k) {
    ar.begin("log");
    counted(ar, "lines", k.klog_, u64{1} << 24,
            [&](std::string& line) { field(ar, "line", line); });
    counted(ar, "detections", k.detections_, kMaxCount, [&](auto& d) {
      record(ar, "detection", d, kDetectionEvent);
    });
    ar.end();
  }

  // Events oldest to newest: head_ is 0 after restore.
  template <class Ar>
  static void ring(Ar& ar, trace::RingBuffer<trace::Event>& r) {
    constexpr std::size_t kEventSize = packed_size(kEvent);
    must_match(ar, "ring_capacity", static_cast<u64>(r.buf_.size()));
    u64 size = r.size_;
    ar.value("ring_size", size);
    ar.check(size <= r.buf_.size(), "ring size over capacity");
    field(ar, "ring_dropped", r.dropped_);
    std::vector<u8> blob;
    if constexpr (!Ar::reading) {
      blob.reserve(r.size_ * kEventSize);
      for (std::size_t i = 0; i < r.size_; ++i) pack(blob, r[i], kEvent);
    }
    ar.value("events", blob);
    if constexpr (Ar::reading) {
      ar.check(blob.size() == size * kEventSize, "event payload length");
      r.buf_.assign(r.buf_.size(), trace::Event{});
      r.head_ = 0;
      r.size_ = static_cast<std::size_t>(size);
      const u8* p = blob.data();
      for (std::size_t i = 0; i < r.size_; ++i) {
        unpack(p, r.buf_[i], kEvent);
        ar.check(static_cast<u8>(r.buf_[i].kind) <
                     kEnumCount<trace::EventKind>,
                 "event kind out of range");
      }
    }
  }

  template <class Ar>
  static void profiler(Ar& ar, trace::Profiler& pf) {
    keyed(ar, "buckets", "bucket", "key", pf.buckets_,
          [&](u64& cycles) { field(ar, "cycles", cycles); });
    keyed(ar, "fills", "fill", "key", pf.fills_,
          [&](trace::Profiler::Fill& f) { members(ar, f, kFill); });
    // The Algorithm-2 trace-scope hand-off: attribution for the debug
    // trap that will close each open single-step window. Must survive
    // serialization for mid-window snapshots to bill identically.
    keyed(ar, "pending_steps", "pending_step", "pid", pf.pending_step_,
          [&](std::pair<trace::Category, trace::Cause>& c) {
            field(ar, "category", c.first);
            field(ar, "cause", c.second);
          });
    members(ar, pf, kProfiler);
    bool scope_active = pf.scope_.active;
    ar.value("scope_active", scope_active);
    ar.check(!scope_active, "snapshot taken inside an open trace scope");
    if constexpr (Ar::reading) pf.scope_ = trace::Profiler::Scope{};
  }

  template <class Ar>
  static void trace_state(Ar& ar, Kernel& k) {
    ar.begin("trace");
    // config.trace already matched, and a kernel has a sink exactly when
    // config.trace is set, so only a corrupt stream disagrees here.
    must_match(ar, "present", k.trace_ptr_ != nullptr,
               "trace sink presence does not match config.trace");
    if (k.trace_ptr_ != nullptr) {
      members(ar, k.trace_, kTraceSink);
      ring(ar, k.trace_.ring_);
      profiler(ar, k.trace_.prof_);
    }
    ar.end();
  }

  template <class Ar>
  static void injector(Ar& ar, Kernel& k, Injector* inj) {
    ar.begin("injector");
    must_match(ar, "present", inj != nullptr,
               "fault-injector attachment mismatch: attach the same hooks "
               "before restoring");
    if (inj != nullptr) {
      ar.check(inj->kernel_ == &k, "injector not attached to this kernel");
      field(ar, "seed", inj->schedule_.seed);
      std::vector<inject::ScheduledFault>& faults = inj->schedule_.faults;
      counted(ar, "faults", faults, u64{1} << 24, [&](auto& f) {
        record(ar, "fault", f, kScheduledFault);
      });
      if constexpr (Ar::reading) {
        inj->records_.assign(faults.size(), Injector::Record{});
        for (std::size_t i = 0; i < faults.size(); ++i) {
          inj->records_[i].fault = faults[i];
        }
      }
      for (Injector::Record& r : inj->records_) {
        record(ar, "record", r, kFaultRecord);
      }
      field(ar, "next", inj->next_);
      ar.check(inj->next_ <= faults.size(), "schedule cursor past the end");
      members(ar, *inj, kArmed);
      std::apply(
          [&](const auto&... q) {
            for (const auto* armed : {&(inj->*q.member)...}) {
              for (const u32 i : *armed) {
                ar.check(i < faults.size(), "armed index out of range");
              }
            }
          },
          kArmed);
    }
    ar.end();
  }

  template <class Ar>
  static void watchdog(Ar& ar, Watchdog* wd) {
    ar.begin("watchdog");
    must_match(ar, "present", wd != nullptr,
               "watchdog attachment mismatch: attach the same hooks before "
               "restoring");
    if (wd != nullptr) {
      // Per-core TLB version counters at the last audit (lazily sized in
      // pre_step, so the vectors may legitimately be empty or short).
      for (auto [name, versions] :
           {std::pair{"itlb_versions", &wd->core_itlb_versions_},
            std::pair{"dtlb_versions", &wd->core_dtlb_versions_}}) {
        counted(ar, name, *versions, 32,
                [&](u64& v) { field(ar, "version", v); });
      }
      members(ar, *wd, kWatchdogAudit);
      keyed(ar, "repairs", "repair", "key", wd->repairs_,
            [&](u32& count) { field(ar, "count", count); });
      members(ar, *wd, kWatchdogTotals);
      if constexpr (Ar::reading) wd->scan_vpns_.clear();
    }
    ar.end();
  }

  // --- the whole machine ----------------------------------------------------

  template <class Ar>
  static void machine(Ar& ar, Kernel& k, Injector* inj, Watchdog* wd) {
    ar.begin("machine");
    config(ar, k);
    // Release the old state into the OLD (still consistent) physical
    // memory before frames are overwritten.
    if constexpr (Ar::reading) teardown(k, /*leak_frames=*/false);
    phys(ar, k.pm_);
    // One machine group per core: its private MMU (both TLBs) and register
    // file. The config "cores" key already guaranteed matching counts.
    for (auto& cp : k.cores_) {
      ar.begin("core");
      must_match(ar, "id", cp->id);
      mmu(ar, cp->mmu);
      ar.begin("cpu");
      field(ar, "regs", cp->cpu.regs());
      ar.end();
      ar.end();
    }
    ar.begin("stats");
    for (const metrics::Counter& c : metrics::kCounters) {
      field(ar, c.name, k.stats_.*c.field);
    }
    ar.end();
    Objects o;
    if constexpr (!Ar::reading) o = collect(k);
    objects(ar, o);
    ar.begin("fs");
    keyed(ar, "nodes", "node", "path", k.fs_.nodes_,
          [&](std::shared_ptr<kernel::FileNode>& n) { o.ref(ar, "file", n); });
    ar.end();
    ar.begin("images");
    // Restore bypasses register_image's signature re-check: each image was
    // admitted when the saved kernel registered it.
    keyed(ar, "count", "image", "name", k.images_,
          [&](image::Image& img) { field(ar, "data", img); });
    ar.end();
    procs(ar, k, o);
    if constexpr (Ar::reading) {
      // The derived indexes: the port registry (every live ListenSock is
      // held by >=1 fd, so the object table is complete) and the timer
      // wheel (wait_deadline is the per-process authority).
      for (const auto& s : o.of<kernel::ListenSock>()) {
        ar.check(k.listen_ports_.emplace(s->port, s).second,
                 "duplicate listen port");
      }
      for (const auto& up : k.procs_) {
        if (up->wait_deadline != 0) {
          k.timers_.insert({up->wait_deadline, up->pid});
        }
      }
    }
    sched(ar, k);
    logs(ar, k);
    trace_state(ar, k);
    injector(ar, k, inj);
    watchdog(ar, wd);
    ar.end();
    if constexpr (Ar::reading) {
      // Host-side decode/block caches restart cold; the billing-identity
      // contract (fuzz-oracle enforced) makes a cold resume bit-identical
      // in simulated figures — only host wall-clock re-warms.
      for (auto& cp : k.cores_) {
        cp->cpu.decode_cache().clear();
        cp->cpu.block_cache().clear();
      }
    }
  }

  // Releases the state a restore replaces. After a failed restore the
  // page tables may be corrupt, so `leak_frames` makes the address spaces
  // leak their frames instead of walking them: the machine is unusable
  // but safely destructible.
  static void teardown(Kernel& k, bool leak_frames) {
    if (leak_frames) {
      for (auto& up : k.procs_) {
        if (up && up->as) up->as->destroyed_ = true;
      }
    }
    k.procs_.clear();
    for (auto& cp : k.cores_) {
      cp->runqueue = Kernel::RunQueue{};
      cp->runqueue.core_id = cp->id;
      cp->current.reset();
      cp->last_running.reset();
      cp->slice_used = 0;
    }
    k.active_core_ = 0;
    k.quantum_used_ = 0;
    k.live_procs_ = 0;
    k.pending_shootdowns_.clear();
    k.channel_waiters_.clear();
    k.timers_.clear();
    k.listen_ports_.clear();
    k.images_.clear();
    k.fs_ = kernel::FileSystem{};
    k.klog_.clear();
    k.detections_.clear();
  }

  // Restore-side proof that tearing the restored machine down can never
  // throw from a destructor: every frame's refcount must equal exactly
  // the references the address spaces release on teardown
  // (AddressSpace::for_each_frame_ref), and every listen socket's
  // refcount the fd slots that hold it. So a structurally valid but
  // semantically corrupt snapshot still cannot break teardown. Each table
  // frame is range-checked before the walk reads it.
  static void validate_consistency(Kernel& k) {
    const arch::PhysicalMemory& pm = k.pm_;
    const u32 nf = pm.num_frames_;
    std::vector<u32> expected(nf, 0);
    const auto count = [&](u32 pfn) {
      if (pfn >= nf) {
        throw SnapshotError("page-table reference to frame " +
                            std::to_string(pfn) + " out of range");
      }
      ++expected[pfn];
    };
    for (const auto& up : k.procs_) {
      if (up->as) up->as->for_each_frame_ref(count, count);
    }
    for (u32 p = 0; p < nf; ++p) {
      if (expected[p] != pm.refcounts_[p]) {
        throw SnapshotError(
            "frame refcounts inconsistent with restored page tables (frame " +
            std::to_string(p) + ": expected " + std::to_string(expected[p]) +
            ", recorded " + std::to_string(pm.refcounts_[p]) + ")");
      }
    }
    std::map<const kernel::ListenSock*, int> listen_refs;
    for (const auto& up : k.procs_) {
      for (const kernel::FdEntry& e : up->fds) {
        if (const auto* l = std::get_if<kernel::FdListen>(&e)) {
          ++listen_refs[l->sock.get()];
        }
      }
    }
    for (const auto& [port, sock] : k.listen_ports_) {
      if (sock->refs != listen_refs[sock.get()]) {
        throw SnapshotError(
            "listen-sock refcount inconsistent with fd table (port " +
            std::to_string(port) + ")");
      }
    }
  }
};

#undef SNAPSHOT_TRIPWIRE

void Access::save(std::ostream& os, kernel::Kernel& k,
                  inject::FaultInjector* inj, invariant::InvariantWatchdog* wd) {
  Writer ar(os);
  Schema::machine(ar, k, inj, wd);
  os.flush();
  if (!os) throw SnapshotError("write failed (stream error)");
}

void Access::restore(std::istream& is, kernel::Kernel& k,
                     inject::FaultInjector* inj,
                     invariant::InvariantWatchdog* wd) {
  try {
    Reader ar(is);
    Schema::machine(ar, k, inj, wd);
    Schema::validate_consistency(k);
  } catch (...) {
    Schema::teardown(k, /*leak_frames=*/true);
    throw;
  }
}

}  // namespace sm::snapshot

// --- Kernel member faces (defined here so the hook types are complete) -----

namespace sm::kernel {

void Kernel::save(std::ostream& os) {
  snapshot::Access::save(os, *this,
                         dynamic_cast<inject::FaultInjector*>(fault_source_),
                         dynamic_cast<invariant::InvariantWatchdog*>(
                             step_observer_));
}

void Kernel::restore(std::istream& is) {
  snapshot::Access::restore(is, *this,
                            dynamic_cast<inject::FaultInjector*>(fault_source_),
                            dynamic_cast<invariant::InvariantWatchdog*>(
                                step_observer_));
}

}  // namespace sm::kernel
