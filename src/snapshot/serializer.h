// Versioned, self-describing binary archive for machine snapshots.
//
// The stream is a flat sequence of tagged fields — [kind][name][payload] —
// wrapped in named groups, preceded by an 8-byte magic and a format
// version. Self-description buys three things at once:
//
//   1. save/restore share ONE schema function per component (Writer and
//      Reader expose the same `value(name, T&)` signature, so the schema
//      is a template over the archive type and cannot drift between the
//      two directions);
//   2. `smsnap dump`/`smsnap diff` walk a snapshot generically, field by
//      field, with no schema at all — every field carries its own name —
//      through the same Reader (next_field) that restore uses;
//   3. corruption is detected structurally: a flipped kind byte, a
//      mismatched field name, a length running past the end of the stream
//      or over its cap all throw SnapshotError with the offending field's
//      path — never undefined behaviour (the round-trip tests run this
//      under ASan/UBSan).
//
// Integers are little-endian fixed width. Deliberately NO floating-point
// field kind: doubles are stored as their IEEE-754 bit pattern (u64) so
// snapshots are bit-exact and text dumps never round.
#pragma once

#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "arch/types.h"

namespace sm::snapshot {

using arch::u32;
using arch::u64;
using arch::u8;

// Any structural problem with a snapshot stream: bad magic, wrong version,
// field kind/name mismatch, truncation, or a length over its cap.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

inline constexpr char kMagic[8] = {'S', 'M', 'S', 'N', 'A', 'P', '\x1a', 0};
// v2: SMP — per-core machine groups (MMU/TLBs, regs, runqueue, scheduler
// slice state), active core, pending shootdowns, per-core watchdog version
// vectors, a core byte on trace events, and the cores/ipi-cost config keys.
// v3: Process::exit_digest hashes VMA extents and non-zero pages only
// (DESIGN.md §10); a v2 digest would compare unequal to a fresh one.
// v4: the stats record is metrics::kCounters, which adds the four SMP
// counters (ipi_sends, ipi_acks, tlb_shootdowns, work_steals).
// v5: Process::exit_digest hashes only the 64-byte chunks that differ from
// the VMA's initial bytes (DESIGN.md §10); a v4 digest would compare
// unequal to a fresh one.
inline constexpr u32 kFormatVersion = 5;

// Field kinds on the wire.
enum class FieldKind : u8 {
  kU8 = 1,
  kU32 = 2,
  kU64 = 3,
  kBool = 4,
  kStr = 5,    // u32 length + bytes
  kBytes = 6,  // u32 length + raw bytes
  kGroupBegin = 7,
  kGroupEnd = 8,
};

// Hard caps a well-formed snapshot never exceeds; a corrupt length field
// fails fast instead of asking the allocator for garbage.
inline constexpr u32 kMaxStrLen = 1u << 20;
inline constexpr u32 kMaxBytesLen = 1u << 28;  // 256 MiB

// Both archives work on the stream's buffer (rdbuf()) directly: one field
// costs a handful of inline sputc/sbumpc calls on the buffer's put or get
// area, and a bulk payload is one sputn/sgetn, instead of one checked
// std::ostream/std::istream call per primitive.
class Writer {
 public:
  // Writes the magic and the format version. A stream that is not good()
  // gets nothing; Access::save then reports the failed stream.
  explicit Writer(std::ostream& os);

  static constexpr bool reading = false;

  void begin(const char* name) { tag(FieldKind::kGroupBegin, name); }
  void end() { tag(FieldKind::kGroupEnd, ""); }

  void value(const char* name, u8& v) {
    tag(FieldKind::kU8, name);
    put8(v);
  }
  void value(const char* name, u32& v) {
    tag(FieldKind::kU32, name);
    raw32(v);
  }
  void value(const char* name, u64& v) {
    tag(FieldKind::kU64, name);
    raw32(static_cast<u32>(v));
    raw32(static_cast<u32>(v >> 32));
  }
  void value(const char* name, bool& v) {
    tag(FieldKind::kBool, name);
    put8(v ? 1 : 0);
  }
  void value(const char* name, std::string& v) {
    tag(FieldKind::kStr, name);
    raw32(static_cast<u32>(v.size()));
    put(v.data(), v.size());
  }
  void value(const char* name, std::vector<u8>& v) { bytes(name, v); }
  // Bulk payload (frame contents, packed event arrays).
  void bytes(const char* name, std::span<const u8> v) {
    tag(FieldKind::kBytes, name);
    raw32(static_cast<u32>(v.size()));
    put(v.data(), v.size());
  }
  // A fixed-size payload, read back in place by Reader::bytes_into.
  void bytes_into(const char* name, std::span<const u8> v) { bytes(name, v); }

  // Writer-side check is a no-op: the live state is trusted.
  void check(bool, const char*) {}

 private:
  void tag(FieldKind k, const char* name);
  void raw32(u32 v) {
    for (int i = 0; i < 32; i += 8) put8(static_cast<u8>(v >> i));
  }
  void put8(u8 v) {
    if (sb_ != nullptr &&
        sb_->sputc(static_cast<char>(v)) == std::char_traits<char>::eof()) {
      failed();
    }
  }
  void put(const void* p, std::size_t n) {
    const auto len = static_cast<std::streamsize>(n);
    if (sb_ != nullptr && len != 0 &&
        sb_->sputn(static_cast<const char*>(p), len) != len) {
      failed();
    }
  }
  // A short write: mark the stream bad, as std::ostream::write would, and
  // write nothing more.
  void failed();

  std::ostream* os_;
  std::streambuf* sb_ = nullptr;  // nullptr once the stream has failed
};

class Reader {
 public:
  // Validates magic + version up front. A stream that is not good() is
  // rejected. The reader consumes exactly the bytes it parses, so after a
  // restore the stream stands on the byte after the snapshot.
  explicit Reader(std::istream& is);

  static constexpr bool reading = true;

  void begin(const char* name) { expect(FieldKind::kGroupBegin, name); }
  void end() { expect(FieldKind::kGroupEnd, ""); }

  void value(const char* name, u8& v) {
    expect(FieldKind::kU8, name);
    v = get8();
  }
  void value(const char* name, u32& v) {
    expect(FieldKind::kU32, name);
    v = get32();
  }
  void value(const char* name, u64& v) {
    expect(FieldKind::kU64, name);
    v = get64();
  }
  void value(const char* name, bool& v) {
    expect(FieldKind::kBool, name);
    v = get8() != 0;
  }
  void value(const char* name, std::string& v) {
    expect(FieldKind::kStr, name);
    get_str(v);
  }
  void value(const char* name, std::vector<u8>& v) {
    expect(FieldKind::kBytes, name);
    get_bytes(v);
  }
  // Reads a bytes field that must be exactly out.size() long (fixed-size
  // payloads like a physical frame).
  void bytes_into(const char* name, std::span<u8> out);

  // --- schema-free walk (dump/diff) --------------------------------------
  // Reads the next field header. Returns false at a clean end of stream
  // (no byte where a header would start). `name` stays valid until the
  // next header is read.
  bool next_field(FieldKind& kind, std::string_view& name);
  // Payload readers: the value after a header of the matching kind.
  u8 get8() { return static_cast<u8>(bump("value")); }
  u32 get32() {
    u32 v = get8();
    v |= static_cast<u32>(get8()) << 8;
    v |= static_cast<u32>(get8()) << 16;
    return v | static_cast<u32>(get8()) << 24;
  }
  u64 get64() {
    const u64 lo = get32();
    return lo | static_cast<u64>(get32()) << 32;
  }
  void get_str(std::string& v);       // u32 length (kMaxStrLen) + bytes
  void get_bytes(std::vector<u8>& v);  // u32 length (kMaxBytesLen) + bytes

  // Validation helper for schema-level constraints (counts, ranges).
  void check(bool ok, const char* what) {
    if (!ok) fail(std::string("validation failed: ") + what);
  }

  [[noreturn]] void fail(const std::string& why);

 private:
  void expect(FieldKind k, const char* name);
  int bump(const char* what) {
    const int c = sb_->sbumpc();
    if (c == std::char_traits<char>::eof()) [[unlikely]] {
      truncated(what);
    }
    return c;
  }
  void read_exact(void* out, std::size_t n, const char* what);
  [[noreturn]] void truncated(const char* what);
  // Reads a header's name length and name into the slot that does not
  // hold the last accepted name; returns that slot.
  int read_name();

  std::streambuf* sb_;
  // Field names of the last two headers read, in place: names_[last_] is
  // the last one accepted, the error context of every failure after it.
  char names_[2][255] = {};
  u8 lens_[2] = {};
  int last_ = 0;
};

// One dumped field: the dotted group path + name, and a printable value.
struct DumpLine {
  std::string key;    // e.g. "snapshot.procs.proc[2].regs.pc"
  std::string value;  // e.g. "0x00401038" or "bytes[4096] sha256=ab12..."
};

// Generic schema-free walk of a whole snapshot stream (smsnap dump).
// Throws SnapshotError on any structural problem.
std::vector<DumpLine> dump(std::istream& is);

// Field-by-field comparison of two snapshot streams (smsnap diff):
// returns human-readable difference lines, empty when byte-equivalent at
// the field level. Fields present in only one snapshot are reported too.
std::vector<std::string> diff(std::istream& a, std::istream& b);

}  // namespace sm::snapshot
