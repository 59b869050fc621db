// Snapshot round-trip fidelity and hostile-input hardening (ISSUE
// satellite): save→restore→save must be byte-identical, and a damaged
// stream — truncated anywhere, any single bit flipped, wrong magic or
// version, config mismatch — must be rejected with snapshot::SnapshotError
// carrying a useful message, never undefined behaviour. Restore reads and
// save writes the stream's buffer directly, so the buffer kind, what
// follows the snapshot and a refused write are pinned here too. The ci
// preset runs this file under ASan/UBSan, which is what makes "never UB"
// a checked claim rather than a hope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "arch/pte.h"
#include "image/sha256.h"
#include "snapshot/replay_support.h"
#include "snapshot/serializer.h"

namespace sm {
namespace {

using arch::u64;
using core::ProtectionMode;
using core::ResponseMode;
using testing::restore_bytes;
using testing::save_bytes;
using testing::snapshot_test_cfg;
using testing::start_guest;

// Fork + pipe + console traffic: a mid-run snapshot of this program
// carries a rich object graph (two processes, shared COW pages, a pipe
// with a blocked reader, fd tables with shared refs).
const char* kForkPipeBody = R"(
_start:
  movi r0, SYS_PIPE
  movi r1, fds
  syscall
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  movi r4, fds
  load r1, [r4]
  movi r0, SYS_READ
  movi r2, buf
  movi r3, 4
  syscall
  movi r0, SYS_WRITE
  movi r1, 1
  movi r2, buf
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
child:
  movi r0, SYS_YIELD
  syscall
  movi r5, 0x6b6f6b6f
  movi r4, buf
  store [r4], r5
  movi r4, fds
  load r1, [r4+4]
  movi r0, SYS_WRITE
  movi r2, buf
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 7
  syscall
.bss
fds: .space 8
buf: .space 4
)";

testing::GuestRun boot(const kernel::KernelConfig& cfg) {
  return start_guest(kForkPipeBody, ProtectionMode::kSplitAll,
                     ResponseMode::kBreak, cfg);
}

// A mid-run snapshot with both processes alive and the pipe in play.
std::string mid_run_blob(const kernel::KernelConfig& cfg, u64 at = 40) {
  auto r = boot(cfg);
  r.k->run(at);
  return save_bytes(*r.k);
}

TEST(SnapshotRoundtrip, SaveRestoreSaveIsByteIdentical) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  // Sweep several machine states, from boot through mid-fork to exited.
  for (u64 at : {u64{0}, u64{10}, u64{40}, u64{100'000}}) {
    const std::string first = mid_run_blob(cfg, at);
    auto r = boot(cfg);
    restore_bytes(*r.k, first);
    const std::string second = save_bytes(*r.k);
    EXPECT_EQ(first, second) << "snapshot@" << at
                             << ": restore lost or re-derived state";
  }
}

// The generic walkers must traverse a real snapshot and agree a snapshot
// differs from itself in zero fields — and pinpoint a field when two
// genuinely different machines are compared.
TEST(SnapshotRoundtrip, DumpWalksAndDiffPinpoints) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string a = mid_run_blob(cfg, 10);
  const std::string b = mid_run_blob(cfg, 40);

  std::istringstream ia(a);
  const auto lines = snapshot::dump(ia);
  EXPECT_GT(lines.size(), 100u);  // a whole machine is not a handful of fields

  std::istringstream a1(a), a2(a);
  EXPECT_TRUE(snapshot::diff(a1, a2).empty());

  std::istringstream da(a), db(b);
  const auto d = snapshot::diff(da, db);
  EXPECT_FALSE(d.empty()) << "different machines diffed equal";
}

TEST(SnapshotRoundtrip, TruncationAlwaysRejected) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);
  ASSERT_GT(blob.size(), 64u);

  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 24; ++i) cuts.push_back(i);  // header region
  for (std::size_t i = 1; i < 24; ++i)
    cuts.push_back(i * blob.size() / 24);  // spread through the body
  cuts.push_back(blob.size() - 1);

  for (std::size_t cut : cuts) {
    auto r = boot(cfg);
    std::istringstream is(blob.substr(0, cut));
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError)
        << "truncation at byte " << cut << " was not rejected";
  }
}

TEST(SnapshotRoundtrip, SingleBitFlipsNeverUndefined) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);

  // Every bit of the header plus a deterministic spread through the body.
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 16; ++i) offsets.push_back(i);
  for (std::size_t i = 1; i < 48; ++i)
    offsets.push_back(i * blob.size() / 48);

  int rejected = 0, accepted = 0;
  for (std::size_t off : offsets) {
    std::string bad = blob;
    bad[off] = static_cast<char>(bad[off] ^ (1u << (off % 8)));
    auto r = boot(cfg);
    std::istringstream is(bad);
    // A flip may land in a value payload and yield a different-but-valid
    // machine (restore succeeds), or break structure/consistency
    // (SnapshotError). Anything else — any other exception type, or a
    // sanitizer report — is the bug this test exists to catch.
    try {
      r.k->restore(is);
      ++accepted;
    } catch (const snapshot::SnapshotError&) {
      ++rejected;
    }
  }
  // Structural bytes dominate the stream (tags + field names), so most
  // flips must be caught structurally.
  EXPECT_GT(rejected, 0);
  SUCCEED() << rejected << " flips rejected, " << accepted
            << " landed in value payloads";
}

TEST(SnapshotRoundtrip, BadMagicAndVersionRejected) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);

  {
    std::string bad = blob;
    bad[0] = 'X';
    auto r = boot(cfg);
    std::istringstream is(bad);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
  // The previous version too: its exit digests are defined differently.
  for (const arch::u32 version :
       {snapshot::kFormatVersion - 1, snapshot::kFormatVersion + 1}) {
    std::string bad = blob;
    bad[8] = static_cast<char>(version);  // version LE
    auto r = boot(cfg);
    std::istringstream is(bad);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError) << "v" << version;
  }
  {
    auto r = boot(cfg);
    std::istringstream is("");
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
}

// A connection queued in a listener's backlog and never accepted: the
// client's request is buffered on it and the client sleeps reading the
// reply, so no run() ever moves this machine on.
const char* kQueuedConnectionBody = R"(
_start:
  movi r0, SYS_LISTEN
  movi r1, 5
  movi r2, 4
  syscall
  movi r0, SYS_CONNECT
  movi r1, 5
  syscall
  movi r4, cfd
  store [r4], r0
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, msg
  movi r3, 4
  syscall
  movi r0, SYS_READ
  movi r4, cfd
  load r1, [r4]
  movi r2, msg
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.data
msg: .ascii "ctc1"
.bss
cfd: .space 4
)";

// The saved bytes of two fixed machines, pinned. The tripwires catch a
// member added or removed; this catches a field whose wire kind, name or
// order changes while its struct keeps its size (a u32 member turned u64
// into padding). The second machine pins the socket records: a listener,
// its backlog and a connected socket. One core and no block engine, so
// the pins hold under SM_CORES and SM_DBT (the stats record carries
// block_cache_misses).
TEST(SnapshotRoundtrip, SavedBytesArePinned) {
  kernel::KernelConfig cfg = snapshot_test_cfg(/*trace=*/true);
  cfg.cores = 1;
  cfg.dbt = false;
  const auto sha_of = [](const std::string& blob) {
    return image::hex_digest(image::sha256(
        {reinterpret_cast<const arch::u8*>(blob.data()), blob.size()}));
  };
  const std::string blob = mid_run_blob(cfg);
  const std::string sha = sha_of(blob);
  const std::string_view pinned_sha =
      "720eeed8ed4a727d0f87e9a8007de7a284a41f889aba92e316f79c1a868aed75";
  const std::string why =
      "the snapshot's bytes changed: bump snapshot::kFormatVersion unless "
      "the change only appends fields, then re-pin the length and SHA-256";
  EXPECT_EQ(blob.size(), 54066u) << why;
  EXPECT_EQ(sha, pinned_sha) << why;

  auto q = start_guest(kQueuedConnectionBody, ProtectionMode::kSplitAll,
                       ResponseMode::kBreak, cfg);
  ASSERT_EQ(q.k->run(), kernel::Kernel::RunResult::kAllBlocked);
  const std::string queued = save_bytes(*q.k);
  const std::string_view pinned_queued_sha =
      "a6ed1c8ae9c9010c5b5f03d19057ab0c45960ff0f56eb520f507681a5af03053";
  EXPECT_EQ(queued.size(), 60916u) << why;
  EXPECT_EQ(sha_of(queued), pinned_queued_sha) << why;
}

// Restore reads through the stream's buffer, whatever kind it is: a file
// buffer, which refills from the file in chunks and reads bulk payloads
// past its buffer, restores the same machine as a string buffer.
TEST(SnapshotRoundtrip, RestoreThroughAFileMatchesAStringStream) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);
  const std::string path = ::testing::TempDir() + "roundtrip_file.snap";
  {
    std::ofstream os(path, std::ios::binary);
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    ASSERT_TRUE(os.good());
  }
  auto from_file = boot(cfg);
  {
    std::fstream fs(path, std::ios::in | std::ios::binary);
    ASSERT_TRUE(fs.is_open());
    from_file.k->restore(fs);
  }
  std::remove(path.c_str());
  auto from_string = boot(cfg);
  restore_bytes(*from_string.k, blob);

  std::istringstream a(save_bytes(*from_file.k));
  std::istringstream b(save_bytes(*from_string.k));
  EXPECT_EQ(snapshot::diff(a, b), std::vector<std::string>{});
}

// The reader consumes exactly the snapshot: whatever follows it in the
// stream is still there, starting at the next byte.
TEST(SnapshotRoundtrip, RestoreStopsAtTheSnapshotsLastByte) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);
  auto r = boot(cfg);
  std::istringstream is(blob + "TRAILER");
  r.k->restore(is);
  ASSERT_TRUE(is.good());
  EXPECT_EQ(is.tellg(), static_cast<std::streamoff>(blob.size()));
  std::string rest;
  std::getline(is, rest);
  EXPECT_EQ(rest, "TRAILER");
}

TEST(SnapshotRoundtrip, RestoreRejectsAStreamInAFailedState) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  const std::string blob = mid_run_blob(cfg);
  auto r = boot(cfg);
  std::istringstream is(blob);
  is.setstate(std::ios::failbit);
  EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
}

// A stream buffer that takes `room` bytes and then refuses every write,
// like a full disk.
class FullAfter : public std::streambuf {
 public:
  explicit FullAfter(std::size_t room) : room_(room) {}
  const std::string& bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    if (bytes_.size() == room_) return traits_type::eof();
    bytes_.push_back(traits_type::to_char_type(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto take =
        std::min(static_cast<std::size_t>(n), room_ - bytes_.size());
    bytes_.append(s, take);
    return static_cast<std::streamsize>(take);
  }

 private:
  std::size_t room_;
  std::string bytes_;
};

TEST(SnapshotRoundtrip, ShortWriteMakesSaveThrow) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  auto r = boot(cfg);
  r.k->run(40);
  const std::string blob = save_bytes(*r.k);
  for (const std::size_t room :
       {std::size_t{0}, std::size_t{5}, std::size_t{13}, blob.size() / 3,
        blob.size() - 1}) {
    FullAfter buf(room);
    std::ostream os(&buf);
    EXPECT_THROW(r.k->save(os), snapshot::SnapshotError)
        << "write refused after " << room << " bytes went unnoticed";
    EXPECT_FALSE(os.good());
  }
  // With room for all of it, the same bytes arrive.
  FullAfter buf(blob.size());
  std::ostream os(&buf);
  r.k->save(os);
  EXPECT_EQ(buf.bytes(), blob);
}

// The blob with the key of its second `group` record overwritten by the
// first one's: restore meets one key twice in the same keyed container
// (when both records belong to it). A record header on the wire is
// [kind][name length][name], and the key is the group's first field.
std::string repeat_first_key(std::string blob, const std::string& group,
                             const std::string& key,
                             snapshot::FieldKind kind) {
  const auto header = [](snapshot::FieldKind k, const std::string& name) {
    return std::string{static_cast<char>(k), static_cast<char>(name.size())} +
           name;
  };
  const std::string keyed =
      header(snapshot::FieldKind::kGroupBegin, group) + header(kind, key);
  const std::size_t width = kind == snapshot::FieldKind::kU32 ? 4 : 8;
  const std::size_t first = blob.find(keyed);
  const std::size_t second = blob.find(keyed, first + keyed.size());
  EXPECT_NE(second, std::string::npos) << "fewer than two '" << group << "'";
  if (second != std::string::npos) {
    blob.replace(second + keyed.size(), width,
                 blob.substr(first + keyed.size(), width));
  }
  return blob;
}

// Every keyed container refuses a repeated key, and the error names the
// record: split pages per address space, and the profiler's buckets.
TEST(SnapshotRoundtrip, RepeatedKeyIsRefusedNamingTheRecord) {
  struct Case {
    bool trace;
    const char* group;
    const char* key;
    snapshot::FieldKind kind;
  };
  for (const Case& c : {Case{false, "split", "vpn", snapshot::FieldKind::kU32},
                        Case{true, "bucket", "key", snapshot::FieldKind::kU64}}) {
    const kernel::KernelConfig cfg = snapshot_test_cfg(c.trace);
    const std::string bad =
        repeat_first_key(mid_run_blob(cfg), c.group, c.key, c.kind);
    auto r = boot(cfg);
    std::istringstream is(bad);
    try {
      r.k->restore(is);
      ADD_FAILURE() << "a repeated '" << c.group << "' key was accepted";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("duplicate '") +
                                           c.group + "' key"),
                std::string::npos)
          << e.what();
    }
  }
}

// A page-directory entry pointing past the end of memory is refused with
// SnapshotError when restore counts the frame references, before the walk
// reads the table it names (reading it would be out of range).
TEST(SnapshotRoundtrip, CorruptDirectoryEntryIsRefusedBeforeItsTableIsRead) {
  const kernel::KernelConfig cfg = snapshot_test_cfg();
  std::string blob = mid_run_blob(cfg);
  const auto le32 = [](arch::u32 v) {
    std::string b(4, '\0');
    std::memcpy(b.data(), &v, 4);
    return b;
  };
  // The first address space's root, then that frame's data in the blob.
  const std::string root_field = std::string("\x07\x02" "as" "\x02\x04" "root");
  const std::size_t at = blob.find(root_field);
  ASSERT_NE(at, std::string::npos);
  arch::u32 root = 0;
  std::memcpy(&root, blob.data() + at + root_field.size(), 4);
  const std::size_t frame =
      blob.find(std::string("\x02\x03" "pfn") + le32(root));
  ASSERT_NE(frame, std::string::npos);
  const std::string data_field =
      std::string("\x06\x04" "data") + le32(arch::kPageSize);
  const std::size_t dir = blob.find(data_field, frame) + data_field.size();
  ASSERT_LT(dir + arch::kPageSize, blob.size());
  // Point the last empty directory slot past the 2048 frames.
  std::size_t slot = arch::kPageSize / 4;
  while (slot-- > 0 && blob.compare(dir + slot * 4, 4, le32(0)) != 0) {
  }
  ASSERT_LT(slot, arch::kPageSize / 4);
  blob.replace(dir + slot * 4, 4,
               le32(arch::Pte::make(0xfffff, arch::Pte::kPresent).raw));

  auto r = boot(cfg);
  std::istringstream is(blob);
  EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
}

// restore() is an in-place reset of a kernel with the SAME configuration
// and engine; a mismatched machine must be refused, not coerced.
TEST(SnapshotRoundtrip, MismatchedMachineRejected) {
  const std::string blob = mid_run_blob(snapshot_test_cfg());

  {
    kernel::KernelConfig other = snapshot_test_cfg();
    other.phys_frames = 1024;  // different RAM size
    auto r = boot(other);
    std::istringstream is(blob);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError);
  }
  {
    auto r = start_guest(kForkPipeBody, ProtectionMode::kNone,
                         ResponseMode::kBreak, snapshot_test_cfg());
    std::istringstream is(blob);
    EXPECT_THROW(r.k->restore(is), snapshot::SnapshotError)
        << "snapshot of a split-protected machine restored into an "
           "unprotected kernel";
  }
}

}  // namespace
}  // namespace sm
