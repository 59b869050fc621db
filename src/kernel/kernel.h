// The mini operating system: process table, scheduler, syscalls, demand
// paging, copy-on-write fork, signals — i.e., the Linux-2.6.13 subsystems
// the paper's ~385-line patch modifies (§5), rebuilt over the simulated
// machine. Protection policy is delegated to a ProtectionEngine so the
// paper's split-memory system and the baselines are pluggable.
#pragma once

#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/cpu.h"
#include "arch/mmu.h"
#include "arch/phys_mem.h"
#include "image/image.h"
#include "kernel/address_space.h"
#include "kernel/channel.h"
#include "kernel/filesystem.h"
#include "kernel/guest_mem.h"
#include "kernel/hooks.h"
#include "kernel/process.h"
#include "kernel/protection.h"
#include "kernel/syscall_defs.h"
#include "metrics/cost_model.h"
#include "metrics/stats.h"
#include "trace/trace.h"

namespace sm::snapshot {
struct Access;
}

namespace sm::kernel {

struct KernelConfig {
  u32 phys_frames = 16384;  // 64 MiB of simulated RAM
  metrics::CostModel cost{};

  // DigSig-style binary signing (paper §4.3): when enabled, spawn/exec/
  // dlopen refuse images whose HMAC does not verify.
  bool require_signatures = false;
  std::vector<u8> signing_key;

  // Linux-2.6-style "slight randomization to the placement of an
  // application's stack" (paper §6.1.2, samba attack).
  bool stack_randomization = false;
  u32 rng_seed = 0x5eed;

  u32 stack_pages = 64;  // 256 KiB stack VMA

  // SPARC-style software-managed TLBs (paper SS4.7): every TLB miss traps
  // to the OS, which loads the TLB directly — no hardware walker, and no
  // need for the x86 split-load contortions.
  bool software_tlb = false;

  // TLB geometry (per TLB; the machine has a split I/D pair). 64x4-way
  // approximates the Pentium III the paper measured on.
  u32 tlb_entries = 64;
  u32 tlb_ways = 4;

  // Populate (and, under a splitting engine, duplicate) every page of
  // every VMA at load time instead of on demand — the behaviour of the
  // paper's prototype, whose ELF-loader patch proactively copied the whole
  // program into side-by-side page pairs (SS5.1). Off by default: the
  // demand-paged variant is the optimization the paper proposes there.
  bool eager_load = false;

  // Observability for the differential-fuzz oracle and the attack tests
  // (tests/support/guest_runner.h turns both on). Off by default so the
  // bench hot paths pay nothing.
  bool record_syscall_trace = false;  // fills Process::syscall_trace
  bool capture_exit_digest = false;   // fills Process::exit_digest

  // Structured event tracing + cycle-attribution profiler (src/trace).
  // Pure observation: simulated stats are bit-identical with this on or
  // off (the billing-identity invariant, fuzz-oracle enforced).
  bool trace = false;
  u32 trace_ring_capacity = 1 << 16;

  // Basic-block translation engine (mini-DBT, DESIGN.md §13). Host-side
  // only: simulated stats, figures, and trace attribution are bit-
  // identical with this on or off — only host wall-clock and the
  // block_cache_* counters change. Also gated by the SM_DBT environment
  // variable ("0" disables, for same-binary identity diffs).
  bool dbt = true;

  // Simulated cores (DESIGN.md §16). Each core owns a private split
  // I/D-TLB pair, its own CPU (registers + block caches) and a runqueue;
  // physical memory, page tables and the cycle clock are shared. 0 means
  // auto: the SM_CORES environment variable if set, else 1. Resolved to
  // the concrete count at Kernel construction (never cached statically, so
  // one process can build kernels with different core counts). At cores=1
  // the machine is bit-identical to the historical single-core simulator.
  u32 cores = 0;
};

// A code-injection detection recorded by a protection engine.
struct DetectionEvent {
  Pid pid = 0;
  std::string process;
  u32 eip = 0;
  arch::u64 cycles = 0;
  std::string mode;              // break/observe/forensics/nx
  std::vector<u8> shellcode;     // forensics: bytes at EIP in the data page
  std::string disassembly;       // forensics: rendered shellcode
};

class Kernel {
 public:
  explicit Kernel(KernelConfig cfg = {});

  // Must be called before the first spawn; defaults to NoProtectionEngine.
  void set_engine(std::unique_ptr<ProtectionEngine> engine);
  ProtectionEngine& engine() { return *engine_; }

  // --- components ---------------------------------------------------------
  arch::PhysicalMemory& phys() { return pm_; }
  // The ACTIVE core's MMU/CPU: the pair every trap handler, engine and
  // syscall implicitly runs on. At cores=1 these are the machine's only
  // MMU/CPU, exactly as before SMP.
  arch::Mmu& mmu() { return cores_[active_core_]->mmu; }
  arch::Cpu& cpu() { return cores_[active_core_]->cpu; }
  metrics::Stats& stats() { return stats_; }
  const metrics::CostModel& cost() const { return cfg_.cost; }
  const KernelConfig& config() const { return cfg_; }
  FileSystem& fs() { return fs_; }
  arch::u64 now() const { return stats_.cycles; }
  // The trace sink, or nullptr when tracing is off (the common case).
  // Engines emit Algorithm 1/2/3 events through this via SM_TRACE.
  trace::TraceSink* trace_sink() { return trace_ptr_; }

  // --- SMP (DESIGN.md §16) -------------------------------------------------
  u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  u32 active_core() const { return active_core_; }
  arch::Mmu& core_mmu(u32 core) { return cores_[core]->mmu; }
  arch::Cpu& core_cpu(u32 core) { return cores_[core]->cpu; }
  std::optional<Pid> core_current(u32 core) const {
    return cores_[core]->current;
  }
  // Drops the translation for vaddr machine-wide: invlpg on the active
  // core plus an IPI shootdown of every remote core that may cache it.
  // Every PTE-mutation site (COW break, munmap, mprotect, fork's
  // write-protect loop, unsplit) goes through this instead of a bare
  // local invlpg.
  void invalidate_page(Process& p, u32 vaddr);
  // Remote-only half of invalidate_page: IPIs every other core whose CR3
  // points at p's page tables and waits for each ack (invariant I7). The
  // split engine calls this before opening a single-step window WITHOUT
  // touching the local TLBs — the window exists to fill them.
  void tlb_shootdown(Process& p, u32 vaddr);
  // A shootdown whose IPI retries were exhausted (injected drop-ipi
  // faults) parks here; opening a window over it violates I7. The
  // watchdog audits and repairs via complete_pending_shootdowns().
  struct PendingShootdown {
    u32 vpn = 0;        // targeted page
    u32 root = 0;       // page-table root the stale entry belongs to
    u32 core_mask = 0;  // cores whose ack never arrived
  };
  const std::vector<PendingShootdown>& pending_shootdowns() const {
    return pending_shootdowns_;
  }
  // Repair path: invalidates the parked translations directly on each
  // un-acked core (bypassing droppable IPI delivery) and clears the list.
  void complete_pending_shootdowns();

  // --- images (the "filesystem of binaries") ------------------------------
  void register_image(image::Image img);
  const image::Image* find_image(const std::string& name) const;

  // --- processes -----------------------------------------------------------
  Pid spawn(const std::string& image_name);
  // Binds a fresh simulated socket to the process' fd 0 and returns the
  // host end. Call before running the guest.
  std::shared_ptr<Channel> attach_channel(Pid pid);
  Process* process(Pid pid);
  const Process* process(Pid pid) const;
  // The process table: a slab indexed by pid (pid N lives at slot N-1).
  // Pids are never reused, so slots are append-only and a stale pid can
  // never alias a different process; lookups still verify slot->pid == pid
  // (the generation check, degenerate under monotonic pids) so a recycled
  // slot scheme can be introduced without changing any caller.
  const std::vector<std::unique_ptr<Process>>& processes() const {
    return procs_;
  }
  bool all_exited() const { return live_procs_ == 0; }

  // --- run loop -------------------------------------------------------------
  enum class RunResult { kAllExited, kAllBlocked, kBudgetExhausted };
  // Runs until everyone exits, everyone blocks with no armed timer, the
  // instruction budget runs out, or — when `cycle_stop` is nonzero — the
  // simulated clock reaches it (reported as kBudgetExhausted; virtual
  // idle advances clamp to the bound). The cycle bound is how open-loop
  // drivers interleave host work at exact simulated times.
  RunResult run(arch::u64 max_instructions = UINT64_MAX,
                arch::u64 cycle_stop = 0);

  // --- virtual-time timers (DESIGN.md §17) ----------------------------------
  // The deadline wheel: {absolute deadline, pid}, ordered — ties broken by
  // pid, so expiry order is deterministic. run() itself advances the clock
  // to the earliest deadline when every process is blocked but a timer is
  // armed (virtual idle), so kAllBlocked means "blocked with no timers".
  const std::set<std::pair<arch::u64, Pid>>& timers() const { return timers_; }
  // Host-side pacing hook for open-loop workloads: when run() returned
  // kAllBlocked and the next external event (e.g. a request arrival) is
  // due at `to_cycles`, jump the clock there so the guest observes the
  // arrival at its scheduled virtual time. Clamped to never move the clock
  // backwards; returns the new now().
  arch::u64 advance_idle_time(arch::u64 to_cycles);
  // Fault-injection service (stall-worker): park p as if it had slept for
  // `cycles`. Must not be called with a single-step window open.
  void inject_stall(Process& p, arch::u64 cycles);

  // --- checkpoint/restore (src/snapshot, DESIGN.md §15) ---------------------
  // Serializes the complete simulated machine. Attached fault-injector /
  // watchdog hooks are discovered and included; host-side caches are
  // dropped cold on restore (billing-identical by contract). restore() is
  // an in-place reset: this kernel must have the same KernelConfig and
  // engine as the saved one (validated; snapshot::SnapshotError on any
  // mismatch or corrupt stream) but may itself have run arbitrarily far.
  // Save points are run() exit boundaries — always whole instructions.
  void save(std::ostream& os);
  void restore(std::istream& is);

  // The channel behind (pid, fd), or nullptr — lets an embedder re-bind
  // its host end after restore() rebuilt the object graph.
  std::shared_ptr<Channel> channel_of(Pid pid, u32 fd);

  // --- services for engines & syscalls (public: engines live in sm::core) --
  GuestMem mem_of(Process& p) { return GuestMem(*p.as); }
  // Registers (live on the CPU for the currently-running process).
  arch::Regs& regs_of(Process& p);
  // Demand-maps every page overlapping [va, va+len); false if outside VMAs.
  bool ensure_mapped(Process& p, u32 va, u32 len);
  // Allocates a frame filled with the VMA-backed initial contents of the
  // page covering page_va.
  u32 alloc_initial_frame(Process& p, const Vma& vma, u32 page_va);
  // Terminates a process with a signal-style cause.
  void kill_process(Process& p, ExitKind kind, const std::string& reason);
  void log(const std::string& line);
  const std::vector<std::string>& klog() const { return klog_; }

  std::vector<DetectionEvent>& detections() { return detections_; }

  // --- robustness hooks (src/inject, src/invariant) ------------------------
  // Non-owning; nullptr (the default) means no fault injection / no
  // watchdog.
  void set_fault_source(FaultSource* src) { fault_source_ = src; }
  void set_step_observer(StepObserver* obs) { step_observer_ = obs; }
  FaultSource* fault_source() { return fault_source_; }
  StepObserver* step_observer() { return step_observer_; }

  // Sebek-style honeypot logging hook (paper Fig. 5d): called with each
  // line the attacker "types" into a spawned shell.
  std::function<void(Process&, const std::string&)> shell_input_logger;

  // Deterministic kernel PRNG (stack randomization, SYS_RAND).
  u32 rng_next();

 private:
  friend struct sm::snapshot::Access;

  // Intrusive FIFO runqueue threaded through Process::rq_next/rq_prev.
  // push/pop/remove are O(1); iteration order is exactly the push order,
  // preserving the historical round-robin schedule of the pid deque.
  struct RunQueue {
    Process* head = nullptr;
    Process* tail = nullptr;
    u32 core_id = 0;  // stamped into Process::rq_core by push_back
    bool empty() const { return head == nullptr; }
    void push_back(Process& p);
    Process* pop_front();
    void remove(Process& p);
  };

  // One simulated core: private split I/D-TLBs (inside the Mmu), private
  // CPU (registers, decode/block caches), and a private runqueue. The
  // machine interleaves cores on one host thread with a fixed dispatch
  // quantum, so every multi-core schedule is deterministic.
  struct Core {
    Core(u32 id_, arch::PhysicalMemory& pm, metrics::Stats& stats,
         const metrics::CostModel& cost, u32 tlb_entries, u32 tlb_ways)
        : id(id_), mmu(pm, stats, cost, tlb_entries, tlb_ways),
          cpu(mmu, stats, cost) {
      runqueue.core_id = id_;
    }
    u32 id = 0;
    arch::Mmu mmu;
    arch::Cpu cpu;
    RunQueue runqueue;
    std::optional<Pid> current;
    std::optional<Pid> last_running;  // CR3 owner; skip reload if unchanged
    arch::u64 slice_used = 0;
  };

  // --- run-loop internals ---------------------------------------------------
  std::optional<Pid> pick_next(Core& c);
  void switch_to(Core& c, Pid pid);
  void deschedule(Process& p);
  void make_runnable(Process& p);
  // The core a freshly runnable process is queued on: pid-sharded, so
  // placement is a pure function of the pid and the core count.
  Core& home_core(const Process& p) {
    return *cores_[(p.pid - 1) % cores_.size()];
  }
  void handle_trap(Process& p, const arch::Trap& trap, bool tf_before);
  void handle_page_fault(Process& p, const arch::PageFaultInfo& pf);
  void handle_cow(Process& p, u32 addr);
  bool wait_satisfied(const Process& p) const;
  bool fd_readable(const Process& p, u32 fd) const;

  // --- timer wheel internals ------------------------------------------------
  // Arms {now + timeout, pid} for the wait p is about to block on (no-op
  // when timeout is 0 = block forever). Exactly one entry per process.
  void arm_timer(Process& p, arch::u64 timeout);
  void cancel_timer(Process& p);
  // Pops every entry with deadline <= now, marks the owner timed out and
  // wakes it. Called at the same scheduling decisions that sweep channel
  // waiters, and from the run loop's virtual-idle advance.
  void expire_timers();

  // --- event-driven wakeups -------------------------------------------------
  // Blocking enqueues the process on the wait queue(s) of what it sleeps
  // on; the satisfying event wakes exactly those sleepers. Entries are
  // re-validated (still blocked, wait now satisfied) before waking, so a
  // stale entry — a select2 sleeper already woken through its other fd, or
  // a process that died while queued — is skipped and discarded.
  void register_waiter(Process& p);
  // Wakes the first valid sleeper on the queue (FIFO); false if none.
  bool wake_one(std::deque<u32>& waiters);
  void wake_all(std::deque<u32>& waiters);
  void wake_exit_waiters(Process& p);
  // Channels are mutated by the host only between run() calls, so their
  // sleepers are woken once per run() entry, in pid order — exactly the
  // order the retired global sweep produced.
  void wake_channel_waiters();
  // Closing a pipe end may fire EOF/EPIPE for every peer of that pipe;
  // these route through the wake queues, so fd release is kernel business.
  void release_fd(FdEntry& e);
  void release_all_fds(Process& p);
  // The close rules for one pipe end, shared by pipe fds, socket fds and
  // the queued connections a closing listener tears down.
  void close_write_end(Pipe& pipe);
  void close_read_end(Pipe& pipe);

  // --- syscalls ---------------------------------------------------------------
  // `retried` marks the re-run of a blocked syscall so the trace records
  // each syscall once, at first issue.
  void do_syscall(Process& p, bool retried = false);
  u32 sys_read(Process& p, u32 fd, u32 buf, u32 len, bool& blocked);
  u32 sys_write(Process& p, u32 fd, u32 buf, u32 len, bool& blocked);
  u32 sys_open(Process& p, u32 path_ptr, u32 flags);
  u32 sys_mmap(Process& p, u32 hint, u32 len, u32 prot);
  u32 sys_brk(Process& p, u32 new_end);
  u32 sys_fork(Process& p);
  u32 sys_exec(Process& p, u32 path_ptr);
  u32 sys_dlopen(Process& p, u32 path_ptr);
  u32 sys_mprotect(Process& p, u32 addr, u32 len, u32 prot);
  u32 sys_spawn_shell(Process& p);
  u32 sys_listen(Process& p, u32 port, u32 backlog);
  u32 sys_connect(Process& p, u32 port);

  void load_into(Process& p, const image::Image& img);
  bool image_allowed(const image::Image& img) const;

  KernelConfig cfg_;
  arch::PhysicalMemory pm_;
  metrics::Stats stats_;
  // The cores. Fixed at construction (cfg_.cores resolved against
  // SM_CORES); unique_ptr keeps Core addresses stable for the intrusive
  // runqueues. Index 0 is the boot core.
  std::vector<std::unique_ptr<Core>> cores_;
  u32 active_core_ = 0;
  // Attempted instructions consumed from the active core's current dispatch
  // quantum. Machine state (not a run() local): a resumed or restored run
  // must continue the core interleave mid-turn, not restart it.
  arch::u64 quantum_used_ = 0;
  std::vector<PendingShootdown> pending_shootdowns_;
  trace::TraceSink trace_;
  trace::TraceSink* trace_ptr_ = nullptr;  // &trace_ iff cfg_.trace
  FileSystem fs_;
  std::unique_ptr<ProtectionEngine> engine_;
  FaultSource* fault_source_ = nullptr;
  StepObserver* step_observer_ = nullptr;

  std::map<std::string, image::Image> images_;
  std::vector<std::unique_ptr<Process>> procs_;  // slot N-1 holds pid N
  u32 live_procs_ = 0;  // processes not yet zombie (all_exited in O(1))
  // Pids blocked on a channel fd (directly or via select2), swept at run()
  // entry. An ordered set: wake order must be pid order, and re-blocking
  // must not duplicate the entry.
  std::set<Pid> channel_waiters_;
  // The deadline wheel (see timers()). Mirrors Process::wait_deadline:
  // the wheel holds exactly {p.wait_deadline, p.pid} for every process
  // with a nonzero deadline, so restore rebuilds it from the process
  // table instead of serializing it.
  std::set<std::pair<arch::u64, Pid>> timers_;
  // Listening sockets by port, in port order (deterministic snapshot
  // discovery). An entry lives exactly as long as fd-table references to
  // its ListenSock exist (ListenSock::refs).
  std::map<u32, std::shared_ptr<ListenSock>> listen_ports_;
  Pid next_pid_ = 1;
  u32 rng_state_;
  std::vector<std::string> klog_;
  std::vector<DetectionEvent> detections_;
};

}  // namespace sm::kernel
