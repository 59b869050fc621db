// Process: registers, address space, file descriptors, scheduling state,
// and the split-memory bookkeeping slot the paper adds to the Linux process
// table ("saving the faulting address into the process' entry in the OS
// process table in order to pass it to the debug interrupt handler", §5.2).
#pragma once

#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <variant>
#include <vector>

#include "arch/cpu.h"
#include "image/sha256.h"
#include "kernel/address_space.h"
#include "kernel/channel.h"
#include "kernel/filesystem.h"

namespace sm::kernel {

using Pid = u32;

enum class ProcState { kRunnable, kBlocked, kZombie };

// What a blocked process is waiting for. Blocking registers the process on
// the wait queue of the object it sleeps on (pipe end, channel, child), and
// the event that satisfies the wait — a peer's write/read/close/exit —
// wakes it directly; there is no global sweep. The reason is re-validated
// at wake time, so a stale queue entry is skipped, never mis-woken.
struct WaitNone {};
struct WaitReadFd {
  u32 fd;
};
struct WaitWriteFd {
  u32 fd;
};
struct WaitChild {
  Pid pid;
};
// select2(fd_a, fd_b): wait until either fd is readable (or at EOF).
struct WaitSelect2 {
  u32 fd_a;
  u32 fd_b;
};
// sleep(cycles) or an injected stall: nothing satisfies this wait except
// the timer wheel firing the process' armed deadline.
struct WaitSleep {};
using WaitReason = std::variant<WaitNone, WaitReadFd, WaitWriteFd, WaitChild,
                                WaitSelect2, WaitSleep>;

// File descriptor table entry.
struct FdChannel {
  std::shared_ptr<Channel> chan;
};
struct FdConsole {};
struct FdPipeRead {
  std::shared_ptr<Pipe> pipe;
};
struct FdPipeWrite {
  std::shared_ptr<Pipe> pipe;
};
struct FdFile {
  std::shared_ptr<FileNode> node;
  u32 offset = 0;
  bool writable = false;
};
// A listening socket (SYS_LISTEN): holds the port's bounded accept queue.
struct FdListen {
  std::shared_ptr<ListenSock> sock;
};
using FdEntry =
    std::variant<std::monostate, FdChannel, FdConsole, FdPipeRead, FdPipeWrite,
                 FdFile, FdListen, FdSock>;

// How a process died (for attack-result reporting).
enum class ExitKind { kRunning, kExited, kKilledSigsegv, kKilledSigill };

// One syscall as the process issued it (number + argument registers at
// entry). Recorded when KernelConfig::record_syscall_trace is set, so the
// differential-fuzz oracle and the attack tests can compare the externally
// visible behaviour of a guest across protection engines instead of
// looking at exit status alone. Blocked-and-retried syscalls are recorded
// once, at first issue.
struct SyscallRecord {
  u32 num = 0;
  u32 a1 = 0;
  u32 a2 = 0;
  u32 a3 = 0;

  bool operator==(const SyscallRecord&) const = default;
};

std::string to_string(const SyscallRecord& r);

struct Process {
  Pid pid = 0;
  Pid parent = 0;
  std::string name;
  ProcState state = ProcState::kRunnable;
  ExitKind exit_kind = ExitKind::kRunning;
  u32 exit_code = 0;

  // Intrusive runqueue links (kernel-owned). The scheduler keeps runnable
  // processes on a doubly-linked FIFO threaded through these fields, so
  // enqueue, dequeue and mid-queue removal are all O(1) — a std::deque of
  // pids needed an O(n) membership scan in make_runnable and an O(n)
  // std::erase on exit, quadratic under thousands of processes. The
  // on_runqueue flag makes membership a field read; the FIFO order is
  // identical to the deque's (push_back / pop_front), so the round-robin
  // schedule — and with it every simulated figure — is unchanged.
  Process* rq_next = nullptr;
  Process* rq_prev = nullptr;
  bool on_runqueue = false;
  // The core whose runqueue currently holds this process (valid only while
  // on_runqueue). Maintained by the queue push itself, so it needs no
  // separate serialization — restore re-pushes through the normal path.
  u32 rq_core = 0;

  arch::Regs regs;
  std::unique_ptr<AddressSpace> as;
  std::vector<FdEntry> fds;

  WaitReason waiting = WaitNone{};
  // Blocked syscall to re-run on wake (regs still hold its arguments).
  bool retry_syscall = false;

  // Virtual-time deadline armed for the current blocked wait (absolute
  // cycles; 0 = none). Mirrored by the kernel's timer wheel — the wheel
  // entry is exactly {wait_deadline, pid} while this is nonzero, so
  // restore rebuilds the wheel from the process table.
  arch::u64 wait_deadline = 0;
  // Set by the timer wheel when the deadline fired before the wait was
  // satisfied; the retried syscall consumes it and returns ERR_TIMEDOUT
  // (or 0 for SYS_SLEEP) if it still cannot make progress.
  bool timed_out = false;

  // Pids blocked in waitpid() on THIS process; its exit wakes exactly these
  // (the per-parent child-exit wait list — no table scan).
  std::vector<Pid> exit_waiters;

  // Split-memory bookkeeping (paper §5.2/§5.3): the page whose PTE was
  // unrestricted for a single-stepped I-TLB load, to be re-restricted by
  // the debug interrupt handler.
  std::optional<u32> pending_split_vaddr;

  // Attack/response bookkeeping.
  bool shell_spawned = false;
  std::optional<u32> recovery_handler;  // SYS_REGISTER_RECOVERY target

  // Console output (fd 1).
  std::string console;

  // Observability for differential testing (both gated by KernelConfig
  // flags so the bench hot paths pay nothing):
  // every syscall issued, in order...
  std::vector<SyscallRecord> syscall_trace;
  // ...and AddressSpace::data_digest(), a SHA-256 of the VMA extents and
  // of the data-view bytes that differ from their initial contents,
  // captured at exit/kill just before the address space is torn down.
  std::optional<image::Digest> exit_digest;

  // Allocates the lowest free fd slot — the POSIX contract the guests and
  // figures depend on. Backed by a lazy min-heap of freed indices instead
  // of a front-to-back scan (O(log n) vs O(n) per allocation; a server
  // churning thousands of fds made the scan quadratic). Lazy: entries can
  // go stale when a slot is occupied out-of-band (attach_channel) or
  // double-closed; alloc_fd discards those as it finds them.
  u32 alloc_fd(FdEntry entry);
  // Declares slot i reusable. Call after the entry is released.
  void free_fd(u32 i) { free_fds.push(i); }

  std::priority_queue<u32, std::vector<u32>, std::greater<u32>> free_fds;
  // Host-side (bills no cycles): heap entries examined by alloc_fd, for
  // the O(1)-allocation regression test. Stale discards count; the final
  // append does not.
  arch::u64 fd_alloc_probes = 0;

  bool alive() const { return state != ProcState::kZombie; }
};

}  // namespace sm::kernel
