#include "kernel/kernel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace sm::kernel {

using arch::kPageSize;
using arch::page_ceil;
using arch::page_floor;
using arch::Pte;
using arch::Trap;
using arch::TrapKind;
using arch::u64;
using arch::vpn_of;

namespace {
constexpr u32 kHeapBase = 0x09010000;
constexpr u32 kStackTop = 0xC0000000;

std::string hex(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

[[maybe_unused]] u32 pf_bits(const arch::PageFaultInfo& pf) {
  u32 bits = 0;
  if (pf.present) bits |= trace::kPfPresent;
  if (pf.write) bits |= trace::kPfWrite;
  if (pf.user) bits |= trace::kPfUser;
  if (pf.fetch) bits |= trace::kPfFetch;
  if (pf.soft_miss) bits |= trace::kPfSoftMiss;
  return bits;
}

// Runtime kill switch for the block engine, read once: SM_DBT=0 turns it
// off so one binary can produce the dbt-on/off identity diff (the
// dbt_identity_* ctests) without a rebuild.
bool dbt_env_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("SM_DBT");
    return v == nullptr || std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

// KernelConfig::cores = 0 means "SM_CORES env, default 1". Deliberately NOT
// statically cached: one process (tests, benches) builds kernels with
// different core counts. Capped at 32 so a core set fits a u32 bitmask.
u32 resolve_cores(u32 cfg_cores) {
  u32 n = cfg_cores;
  if (n == 0) {
    const char* v = std::getenv("SM_CORES");
    const long parsed = v != nullptr ? std::strtol(v, nullptr, 10) : 1;
    n = parsed >= 1 ? static_cast<u32>(parsed) : 1;
  }
  return std::min<u32>(n, 32);
}

// Dispatch quantum for the deterministic core interleave: attempted
// instructions one core runs before the machine rotates to the next.
// Counted identically by the per-instruction and block-engine paths, so
// DBT on/off cannot shift the schedule (the dbt_identity contract extends
// to --cores N). A single core runs unbounded — see Kernel::run.
constexpr u64 kSmpDispatchQuantum = 32;

// IPI delivery attempts per shootdown target before the sender gives up
// and parks the shootdown as pending (only injected drop-ipi faults can
// exhaust this).
constexpr u32 kIpiRetryLimit = 3;
}  // namespace

Kernel::Kernel(KernelConfig cfg)
    : cfg_(std::move(cfg)),
      pm_(cfg_.phys_frames),
      engine_(std::make_unique<NoProtectionEngine>()),
      rng_state_(cfg_.rng_seed == 0 ? 1 : cfg_.rng_seed) {
  cfg_.cores = resolve_cores(cfg_.cores);
  cores_.reserve(cfg_.cores);
  for (u32 i = 0; i < cfg_.cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, pm_, stats_, cfg_.cost,
                                            cfg_.tlb_entries, cfg_.tlb_ways));
  }
  if (cfg_.trace) {
    trace_.enable({cfg_.trace_ring_capacity});
    trace_.set_stats(&stats_);
    trace_ptr_ = &trace_;
  }
  for (const auto& c : cores_) {
    c->mmu.set_software_tlb(cfg_.software_tlb);
    c->cpu.set_block_engine_enabled(cfg_.dbt && dbt_env_enabled());
    if (trace_ptr_ != nullptr) {
      c->mmu.set_trace(trace_ptr_);
      c->cpu.set_trace(trace_ptr_);
    }
  }
}

void Kernel::set_engine(std::unique_ptr<ProtectionEngine> engine) {
  if (!procs_.empty()) {
    throw std::logic_error("set_engine must precede the first spawn");
  }
  engine_ = std::move(engine);
}

u32 Kernel::rng_next() {
  // xorshift32: deterministic, seedable.
  u32 x = rng_state_;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  rng_state_ = x;
  return x;
}

void Kernel::log(const std::string& line) { klog_.push_back(line); }

// --------------------------------------------------------------------------
// Intrusive runqueue
// --------------------------------------------------------------------------

void Kernel::RunQueue::push_back(Process& p) {
  p.on_runqueue = true;
  p.rq_core = core_id;
  p.rq_next = nullptr;
  p.rq_prev = tail;
  if (tail != nullptr) {
    tail->rq_next = &p;
  } else {
    head = &p;
  }
  tail = &p;
}

Process* Kernel::RunQueue::pop_front() {
  Process* p = head;
  if (p != nullptr) remove(*p);
  return p;
}

void Kernel::RunQueue::remove(Process& p) {
  if (p.rq_prev != nullptr) {
    p.rq_prev->rq_next = p.rq_next;
  } else {
    head = p.rq_next;
  }
  if (p.rq_next != nullptr) {
    p.rq_next->rq_prev = p.rq_prev;
  } else {
    tail = p.rq_prev;
  }
  p.rq_next = nullptr;
  p.rq_prev = nullptr;
  p.on_runqueue = false;
}

// --------------------------------------------------------------------------
// Images & loading
// --------------------------------------------------------------------------

void Kernel::register_image(image::Image img) {
  if (cfg_.require_signatures && !img.verify(cfg_.signing_key)) {
    // Registered anyway; spawn/exec/dlopen will refuse it. This mirrors an
    // on-disk binary with a bad signature.
    log("[image] " + img.name + " has an INVALID signature");
  }
  images_[img.name] = std::move(img);
}

const image::Image* Kernel::find_image(const std::string& name) const {
  const auto it = images_.find(name);
  return it == images_.end() ? nullptr : &it->second;
}

bool Kernel::image_allowed(const image::Image& img) const {
  if (!cfg_.require_signatures) return true;
  return img.verify(cfg_.signing_key);
}

void Kernel::load_into(Process& p, const image::Image& img) {
  p.as = std::make_unique<AddressSpace>(pm_);
  for (const image::Segment& seg : img.segments) {
    Vma vma;
    vma.start = page_floor(seg.vaddr);
    vma.end = page_ceil(seg.vaddr + seg.mem_size);
    vma.prot = seg.prot;
    vma.name = seg.name;
    if (seg.name == "text") {
      vma.kind = VmaKind::kCode;
    } else if (seg.name == "data") {
      vma.kind = VmaKind::kData;
    } else if (seg.name == "bss") {
      vma.kind = VmaKind::kBss;
    } else {
      vma.kind = VmaKind::kLibrary;
    }
    vma.backing = std::make_shared<const std::vector<u8>>(seg.bytes);
    // Backing bytes start at seg.vaddr which may sit inside the first page.
    // Our assembler emits page-aligned section bases, so keep it simple and
    // require alignment.
    if (seg.vaddr != vma.start) {
      throw std::runtime_error("segment " + seg.name + " not page aligned");
    }
    vma.backing_offset = 0;
    p.as->add_vma(std::move(vma));
  }

  // Stack.
  Vma stack;
  stack.start = kStackTop - cfg_.stack_pages * kPageSize;
  stack.end = kStackTop;
  stack.prot = kProtR | kProtW;
  stack.kind = VmaKind::kStack;
  stack.name = "stack";
  p.as->add_vma(std::move(stack));

  p.as->brk_end = kHeapBase;

  u32 rand_off = 0;
  if (cfg_.stack_randomization) {
    // "slight randomization": up to 8 KiB in 16-byte steps, like early 2.6.
    rand_off = (rng_next() % 512) * 16;
  }
  p.regs = arch::Regs{};
  p.regs.pc = img.entry;
  p.regs.sp() = kStackTop - 64 - rand_off;
  p.regs.fp() = p.regs.sp();
  p.name = img.name;

  if (cfg_.eager_load) {
    // Paper SS5.1 prototype behaviour: "two new, side-by-side, physical
    // pages are created and the original page is copied into both" for the
    // whole program image at load time.
    for (const Vma& vma : p.as->vmas()) {
      for (u32 page = vma.start; page < vma.end; page += kPageSize) {
        if (!p.as->pt().get(page).present()) {
          engine_->materialize(*this, p, vma, page);
          ++stats_.demand_pages;
          stats_.cycles += cfg_.cost.demand_page;
          SM_TRACE(trace_ptr_, charge(trace::Category::kDemandPage,
                                      cfg_.cost.demand_page, page));
          SM_TRACE(trace_ptr_, record(trace::EventKind::kDemandPage, page,
                                      p.as->pt().get(page).pfn()));
        }
      }
    }
  }
}

Pid Kernel::spawn(const std::string& image_name) {
  const image::Image* img = find_image(image_name);
  if (img == nullptr) throw std::invalid_argument("no image " + image_name);
  if (!image_allowed(*img)) {
    throw std::runtime_error("image " + image_name +
                             " rejected: bad signature");
  }
  auto proc = std::make_unique<Process>();
  proc->pid = next_pid_++;
  proc->fds.resize(2);
  proc->fds[kFdNet] = std::monostate{};
  proc->fds[kFdConsole] = FdConsole{};
  // Slot 0 is free until a channel is attached; alloc_fd may claim it.
  proc->free_fd(kFdNet);
  load_into(*proc, *img);
  const Pid pid = proc->pid;
  procs_.push_back(std::move(proc));
  ++live_procs_;
  home_core(*procs_.back()).runqueue.push_back(*procs_.back());
  log("[spawn] pid " + std::to_string(pid) + " <- " + image_name);
  return pid;
}

std::shared_ptr<Channel> Kernel::attach_channel(Pid pid) {
  Process* p = process(pid);
  if (p == nullptr) throw std::invalid_argument("no such pid");
  auto chan = std::make_shared<Channel>();
  p->fds[kFdNet] = FdChannel{chan};
  return chan;
}

std::shared_ptr<Channel> Kernel::channel_of(Pid pid, u32 fd) {
  Process* p = process(pid);
  if (p == nullptr || fd >= p->fds.size()) return nullptr;
  if (auto* c = std::get_if<FdChannel>(&p->fds[fd])) return c->chan;
  return nullptr;
}

Process* Kernel::process(Pid pid) {
  if (pid == 0 || pid > procs_.size()) return nullptr;
  Process* p = procs_[pid - 1].get();
  return p->pid == pid ? p : nullptr;  // slot-generation check
}

const Process* Kernel::process(Pid pid) const {
  if (pid == 0 || pid > procs_.size()) return nullptr;
  const Process* p = procs_[pid - 1].get();
  return p->pid == pid ? p : nullptr;
}

// --------------------------------------------------------------------------
// Memory services
// --------------------------------------------------------------------------

arch::Regs& Kernel::regs_of(Process& p) {
  for (const auto& c : cores_) {
    if (c->current && *c->current == p.pid) return c->cpu.regs();
  }
  return p.regs;
}

u32 Kernel::alloc_initial_frame(Process& p, const Vma& vma, u32 page_va) {
  const u32 frame = pm_.alloc_frame();
  p.as->initial_page_bytes(vma, page_va, pm_.frame_bytes(frame));
  return frame;
}

bool Kernel::ensure_mapped(Process& p, u32 va, u32 len) {
  if (len == 0) return true;
  const u32 first = page_floor(va);
  const u32 last = page_floor(va + len - 1);
  for (u32 page = first;; page += kPageSize) {
    const Pte pte = p.as->pt().get(page);
    if (!pte.present()) {
      const Vma* vma = p.as->find_vma(page);
      if (vma == nullptr) return false;
      ++stats_.demand_pages;
      stats_.cycles += cfg_.cost.demand_page;
      SM_TRACE(trace_ptr_, charge(trace::Category::kDemandPage,
                                  cfg_.cost.demand_page, page));
      engine_->materialize(*this, p, *vma, page);
      SM_TRACE(trace_ptr_, record(trace::EventKind::kDemandPage, page,
                                  p.as->pt().get(page).pfn()));
    }
    if (page == last) break;
  }
  return true;
}

namespace {
// The pipe a read of this fd drains and the pipe a write to it fills: a
// pipe end names one of the two, a connected socket both (it reads rx and
// writes tx). Null for every other fd kind.
Pipe* read_end(const FdEntry& e) {
  if (const auto* pr = std::get_if<FdPipeRead>(&e)) return pr->pipe.get();
  if (const auto* sk = std::get_if<FdSock>(&e)) return sk->rx.get();
  return nullptr;
}
Pipe* write_end(const FdEntry& e) {
  if (const auto* pw = std::get_if<FdPipeWrite>(&e)) return pw->pipe.get();
  if (const auto* sk = std::get_if<FdSock>(&e)) return sk->tx.get();
  return nullptr;
}

void retain_fds(std::vector<FdEntry>& fds) {
  for (FdEntry& e : fds) {
    if (Pipe* w = write_end(e)) w->add_writer();
    if (Pipe* r = read_end(e)) r->add_reader();
    if (auto* l = std::get_if<FdListen>(&e)) ++l->sock->refs;
  }
}
}  // namespace

void Kernel::close_write_end(Pipe& pipe) {
  pipe.remove_writer();
  // Last writer gone and nothing buffered: every sleeping reader is at
  // EOF right now, and no future event will arrive to wake it.
  if (pipe.eof()) wake_all(pipe.read_waiters);
}

void Kernel::close_read_end(Pipe& pipe) {
  pipe.remove_reader();
  if (pipe.read_closed()) {
    // EPIPE: sleeping writers can never make progress again.
    wake_all(pipe.write_waiters);
  } else if (pipe.readable() > 0) {
    // A reader died holding the handoff baton (woken for data it never
    // consumed): pass the buffered bytes to the next sleeper.
    wake_one(pipe.read_waiters);
  }
}

void Kernel::release_fd(FdEntry& e) {
  // Moved out of the slot first, so what it holds outlives the wakeups. A
  // socket closes its write end, then its read end.
  const FdEntry closing = std::exchange(e, std::monostate{});
  if (Pipe* w = write_end(closing)) close_write_end(*w);
  if (Pipe* r = read_end(closing)) close_read_end(*r);
  if (const auto* l = std::get_if<FdListen>(&closing)) {
    ListenSock& sock = *l->sock;
    if (--sock.refs <= 0) {
      // Last holder gone: the port closes. Queued-but-unaccepted
      // connections are torn down as peer closes — the client side sees
      // EOF on its rx and EPIPE on its tx, exactly like a peer that
      // accepted and immediately closed.
      for (FdSock& conn : sock.backlog) {
        close_write_end(*conn.tx);
        close_read_end(*conn.rx);
      }
      sock.backlog.clear();
      // Parked accepters can never succeed now; on retry they see EBADF.
      wake_all(sock.accept_waiters);
      listen_ports_.erase(sock.port);
    }
  }
}

void Kernel::release_all_fds(Process& p) {
  for (FdEntry& e : p.fds) release_fd(e);
  p.fds.clear();
  p.free_fds = {};
}

void Kernel::kill_process(Process& p, ExitKind kind, const std::string& reason) {
  log("[kill] pid " + std::to_string(p.pid) + " (" + p.name + "): " + reason);
  cancel_timer(p);
  if (p.alive()) --live_procs_;
  p.state = ProcState::kZombie;
  p.exit_kind = kind;
  p.exit_code = 0xFF;
  if (cfg_.capture_exit_digest && p.as) p.exit_digest = p.as->data_digest();
  p.as.reset();
  release_all_fds(p);
  wake_exit_waiters(p);
  for (const auto& c : cores_) {
    if (c->current && *c->current == p.pid) c->current = std::nullopt;
  }
  if (p.on_runqueue) cores_[p.rq_core]->runqueue.remove(p);
}

// --------------------------------------------------------------------------
// Scheduler & run loop
// --------------------------------------------------------------------------

bool Kernel::fd_readable(const Process& p, u32 fd) const {
  if (fd >= p.fds.size()) return true;
  const FdEntry& e = p.fds[fd];
  if (const auto* c = std::get_if<FdChannel>(&e)) {
    return c->chan->guest_readable() > 0 || c->chan->guest_eof();
  }
  if (const Pipe* r = read_end(e)) return r->readable() > 0 || r->eof();
  if (const auto* l = std::get_if<FdListen>(&e)) {
    return !l->sock->backlog.empty();
  }
  return true;  // console/file/closed fds never block a read
}

bool Kernel::wait_satisfied(const Process& p) const {
  if (std::holds_alternative<WaitNone>(p.waiting)) return true;
  if (const auto* wr = std::get_if<WaitReadFd>(&p.waiting)) {
    return fd_readable(p, wr->fd);
  }
  if (const auto* ww = std::get_if<WaitWriteFd>(&p.waiting)) {
    if (ww->fd >= p.fds.size()) return true;
    const Pipe* w = write_end(p.fds[ww->fd]);
    return w == nullptr || w->writable() > 0 || w->read_closed();
  }
  if (const auto* ws = std::get_if<WaitSelect2>(&p.waiting)) {
    return fd_readable(p, ws->fd_a) || fd_readable(p, ws->fd_b);
  }
  if (const auto* wc = std::get_if<WaitChild>(&p.waiting)) {
    const Process* target = process(wc->pid);
    return target == nullptr || !target->alive();
  }
  if (std::holds_alternative<WaitSleep>(p.waiting)) {
    // Only the deadline timer (or a kill) ends a sleep; no fd event does.
    return false;
  }
  return true;
}

void Kernel::register_waiter(Process& p) {
  const auto register_read_fd = [&](u32 fd) {
    if (fd >= p.fds.size()) return;
    FdEntry& e = p.fds[fd];
    if (std::holds_alternative<FdChannel>(e)) {
      channel_waiters_.insert(p.pid);
    } else if (Pipe* r = read_end(e)) {
      r->read_waiters.push_back(p.pid);
    } else if (auto* l = std::get_if<FdListen>(&e)) {
      l->sock->accept_waiters.push_back(p.pid);
    }
  };
  if (const auto* wr = std::get_if<WaitReadFd>(&p.waiting)) {
    register_read_fd(wr->fd);
  } else if (const auto* ww = std::get_if<WaitWriteFd>(&p.waiting)) {
    if (ww->fd < p.fds.size()) {
      if (Pipe* w = write_end(p.fds[ww->fd])) w->write_waiters.push_back(p.pid);
    }
  } else if (const auto* ws = std::get_if<WaitSelect2>(&p.waiting)) {
    register_read_fd(ws->fd_a);
    register_read_fd(ws->fd_b);
  } else if (const auto* wc = std::get_if<WaitChild>(&p.waiting)) {
    if (Process* target = process(wc->pid)) {
      target->exit_waiters.push_back(p.pid);
    }
  }
}

bool Kernel::wake_one(std::deque<u32>& waiters) {
  while (!waiters.empty()) {
    const Pid pid = waiters.front();
    waiters.pop_front();
    ++stats_.sched_wake_checks;
    Process* w = process(pid);
    if (w != nullptr && w->state == ProcState::kBlocked &&
        wait_satisfied(*w)) {
      make_runnable(*w);
      return true;
    }
    // Stale entry (woken through another queue, or dead): drop and retry.
  }
  return false;
}

void Kernel::wake_all(std::deque<u32>& waiters) {
  while (!waiters.empty()) {
    const Pid pid = waiters.front();
    waiters.pop_front();
    ++stats_.sched_wake_checks;
    Process* w = process(pid);
    if (w != nullptr && w->state == ProcState::kBlocked &&
        wait_satisfied(*w)) {
      make_runnable(*w);
    }
  }
}

void Kernel::wake_exit_waiters(Process& p) {
  for (const Pid pid : p.exit_waiters) {
    ++stats_.sched_wake_checks;
    Process* w = process(pid);
    if (w != nullptr && w->state == ProcState::kBlocked &&
        wait_satisfied(*w)) {
      make_runnable(*w);
    }
  }
  p.exit_waiters.clear();
}

void Kernel::wake_channel_waiters() {
  // Channel readability is driven by the host between run() calls, so this
  // runs at the points the retired global sweep did (scheduling decisions),
  // over only the channel-blocked pids, in pid order — the sweep's order.
  // Entries persist until satisfied; stale ones (woken through a pipe
  // queue, or dead) are dropped as they are found.
  for (auto it = channel_waiters_.begin(); it != channel_waiters_.end();) {
    ++stats_.sched_wake_checks;
    Process* w = process(*it);
    if (w == nullptr || w->state != ProcState::kBlocked) {
      it = channel_waiters_.erase(it);
      continue;
    }
    if (wait_satisfied(*w)) {
      make_runnable(*w);
      it = channel_waiters_.erase(it);
      continue;
    }
    ++it;
  }
}

void Kernel::make_runnable(Process& p) {
  cancel_timer(p);  // an event win disarms the deadline; timed_out stays
  p.state = ProcState::kRunnable;
  p.waiting = WaitNone{};
  if (!p.on_runqueue) home_core(p).runqueue.push_back(p);
}

// --------------------------------------------------------------------------
// Deadline timers (virtual time)
//
// The wheel is a set ordered by (deadline, pid); Process::wait_deadline
// mirrors membership (0 = not armed) so cancellation is O(log n) without a
// search. The wheel is never serialized: restore rebuilds it from the
// process table, so the snapshot stays a pure function of guest state.
// --------------------------------------------------------------------------

void Kernel::arm_timer(Process& p, u64 timeout) {
  if (timeout == 0) return;
  cancel_timer(p);
  p.wait_deadline = stats_.cycles + timeout;
  timers_.insert({p.wait_deadline, p.pid});
}

void Kernel::cancel_timer(Process& p) {
  if (p.wait_deadline == 0) return;
  timers_.erase({p.wait_deadline, p.pid});
  p.wait_deadline = 0;
}

void Kernel::expire_timers() {
  while (!timers_.empty() && timers_.begin()->first <= stats_.cycles) {
    const Pid pid = timers_.begin()->second;
    timers_.erase(timers_.begin());
    Process* p = process(pid);
    if (p == nullptr) continue;
    p->wait_deadline = 0;
    if (p->state != ProcState::kBlocked) continue;
    ++stats_.timer_fires;
    SM_TRACE(trace_ptr_, record(trace::EventKind::kTimerFire, 0, pid));
    // Only a wait that re-runs its syscall can observe ERR_TIMEDOUT; an
    // injected stall (retry_syscall false) just resumes at its pc.
    if (p->retry_syscall) p->timed_out = true;
    make_runnable(*p);
  }
}

u64 Kernel::advance_idle_time(u64 to_cycles) {
  // Host pacing hook: an embedder modelling external arrivals moves the
  // clock forward while everything is parked. Never skips past an armed
  // deadline — the earliest timer fires first, at its exact cycle.
  if (!timers_.empty()) to_cycles = std::min(to_cycles, timers_.begin()->first);
  if (to_cycles > stats_.cycles) {
    ++stats_.idle_advances;
    stats_.cycles = to_cycles;
    expire_timers();
  }
  return stats_.cycles;
}

void Kernel::inject_stall(Process& p, u64 cycles) {
  // Park a dispatched process as if it had slept: the stall-worker fault.
  // retry_syscall stays false, so expiry resumes it at its current pc.
  if (cycles == 0 || !p.alive()) return;
  p.waiting = WaitSleep{};
  p.state = ProcState::kBlocked;
  arm_timer(p, cycles);
  deschedule(p);
  if (p.on_runqueue) cores_[p.rq_core]->runqueue.remove(p);
}

std::optional<Pid> Kernel::pick_next(Core& c) {
  while (!c.runqueue.empty()) {
    const Process* p = c.runqueue.pop_front();
    if (p->state == ProcState::kRunnable) return p->pid;
  }
  // Work stealing: scan the other queues in core-id order starting just
  // past this core, head-first (the victim's own dispatch order). A
  // process mid single-step window is pinned — Algorithm 1's state lives
  // in the TLBs of the core that opened the window, so migrating it would
  // re-fault on cold TLBs and double-charge the protocol.
  for (u32 off = 1; off < cores_.size(); ++off) {
    Core& victim = *cores_[(c.id + off) % cores_.size()];
    for (Process* q = victim.runqueue.head; q != nullptr; q = q->rq_next) {
      if (q->state != ProcState::kRunnable) continue;
      if (q->pending_split_vaddr.has_value() || q->regs.tf()) continue;
      victim.runqueue.remove(*q);
      ++stats_.work_steals;
      return q->pid;
    }
  }
  return std::nullopt;
}

void Kernel::switch_to(Core& c, Pid pid) {
  Process& p = *process(pid);
  if (!c.last_running || *c.last_running != pid) {
    ++stats_.context_switches;
    stats_.cycles += cfg_.cost.context_switch;
    SM_TRACE(trace_ptr_, set_current_pid(pid));
    SM_TRACE(trace_ptr_, record(trace::EventKind::kContextSwitch, 0,
                                c.last_running ? *c.last_running : 0));
    SM_TRACE(trace_ptr_, charge(trace::Category::kContextSwitch,
                                cfg_.cost.context_switch));
    c.mmu.set_cr3(p.as->root());  // flushes both TLBs
  }
  c.cpu.regs() = p.regs;
  c.current = pid;
  c.last_running = pid;
  c.slice_used = 0;
}

void Kernel::deschedule(Process& p) {
  for (const auto& c : cores_) {
    if (c->current && *c->current == p.pid) {
      p.regs = c->cpu.regs();
      c->current = std::nullopt;
    }
  }
}

Kernel::RunResult Kernel::run(u64 max_instructions, u64 cycle_stop) {
  u64 executed = 0;
  const auto cycle_stopped = [&] {
    return cycle_stop != 0 && stats_.cycles >= cycle_stop;
  };
  // Deterministic SMP interleave: cores take fixed-size turns in core-id
  // order. A single core gets an unbounded quantum, making the inner loop
  // the historical single-core run loop, iteration for iteration.
  const u64 quantum = cores_.size() == 1 ? UINT64_MAX : kSmpDispatchQuantum;
  while (executed < max_instructions) {
    Core& core = *cores_[active_core_];
    if (cores_.size() > 1) {
      // Re-stamp the trace context for the incoming core. No event is
      // emitted: rotation is a simulator construct, not machine work.
      SM_TRACE(trace_ptr_,
               set_current_core(static_cast<trace::u8>(core.id)));
      if (core.current) {
        SM_TRACE(trace_ptr_, set_current_pid(*core.current));
      }
    }
    bool idle = false;
    while (executed < max_instructions && quantum_used_ < quantum &&
           !cycle_stopped()) {
      if (!core.current) {
        expire_timers();
        wake_channel_waiters();
        const auto next = pick_next(core);
        if (!next) {
          idle = true;
          break;
        }
        switch_to(core, *next);
      }
      Process& p = *process(*core.current);

      if (p.retry_syscall) {
        p.retry_syscall = false;
        try {
          do_syscall(p, /*retried=*/true);
        } catch (const arch::OutOfMemoryError&) {
          // Injected frame exhaustion degrades to killing the requester;
          // genuine global exhaustion keeps its documented contract (the
          // error propagates to the embedder).
          if (fault_source_ == nullptr) throw;
          if (p.alive()) {
            kill_process(p, ExitKind::kKilledSigsegv,
                         "out of memory (no frame available)");
          }
        }
        if (!core.current) continue;  // blocked again or exited
      }

      if (fault_source_ != nullptr) [[unlikely]] {
        fault_source_->pre_step(*this, p);
        // Stall-worker fault: park the process about to run as if it had
        // slept, and let the scheduler route around it.
        const u64 stall = fault_source_->stall_cycles(*this, p);
        if (stall > 0) {
          inject_stall(p, stall);
          if (!core.current) continue;
        }
      }
      if (step_observer_ != nullptr) [[unlikely]] {
        step_observer_->pre_step(*this, p);
      }
      const bool tf_before = core.cpu.regs().tf();
      const u32 pc_before = core.cpu.regs().pc;
      // Block-engine dispatch (mini-DBT): whole basic blocks per dispatch
      // when nothing needs to observe individual instructions. TF windows
      // are per-instruction by definition (Algorithm 2), and an attached
      // fault injector or invariant watchdog wants its pre/post hooks
      // between every step — those take the step() path, whose semantics
      // and billing the block engine reproduces exactly.
      const bool use_blocks = core.cpu.block_engine_enabled() && !tf_before &&
                              fault_source_ == nullptr &&
                              step_observer_ == nullptr;
      std::optional<Trap> trap;
      if (use_blocks) {
        // A block may not run past the instruction budget, the timeslice
        // boundary, the core's dispatch quantum or the caller's cycle
        // bound: preemption timing is architectural state the figures
        // depend on, so the budgets clip blocks exactly where the
        // per-instruction loop would have stopped stepping.
        const u64 slice = cfg_.cost.timeslice_instructions;
        const u64 slice_room =
            slice > core.slice_used ? slice - core.slice_used : 1;
        const arch::Cpu::BlockStep bs = core.cpu.step_block(
            std::min({max_instructions - executed, slice_room,
                      quantum - quantum_used_}),
            cycle_stop);
        trap = bs.trap;
        executed += bs.attempts;
        quantum_used_ += bs.attempts;
        core.slice_used += bs.attempts;
      } else {
        trap = core.cpu.step();
        ++executed;
        ++quantum_used_;
        ++core.slice_used;
      }
      if (trap) {
        try {
          handle_trap(p, *trap, tf_before);
        } catch (const arch::OutOfMemoryError&) {
          // INJECTED frame exhaustion surfacing through a path with no
          // dedicated recovery (fork, COW, a data-frame allocation):
          // degrade by killing the process, never by tearing down the
          // kernel. Genuine exhaustion (no injector attached) keeps its
          // documented contract and propagates to the embedder.
          if (fault_source_ == nullptr) throw;
          if (p.alive()) {
            kill_process(p, ExitKind::kKilledSigsegv,
                         "out of memory (no frame available)");
          }
        }
      }
      if (step_observer_ != nullptr) [[unlikely]] {
        step_observer_->post_step(*this, p, pc_before);
      }
      if (fault_source_ != nullptr && core.current) [[unlikely]] {
        // Injected mid-window preemption: force the timer to fire early.
        if (fault_source_->force_preempt(*this, p)) {
          core.slice_used = cfg_.cost.timeslice_instructions;
        }
      }

      // Timer preemption: round-robin if someone else is waiting for the
      // CPU.
      if (core.current && core.slice_used >= cfg_.cost.timeslice_instructions) {
        expire_timers();
        wake_channel_waiters();
        // The queue holds only runnable processes: blocking happens while
        // current (never queued) and exit/kill remove the entry — so any
        // entry at all means someone else wants the CPU.
        if (!core.runqueue.empty()) {
          Process& cur = *process(*core.current);
          deschedule(cur);
          core.runqueue.push_back(cur);
        } else {
          core.slice_used = 0;
        }
      }
    }
    if (idle) {
      // Nothing runnable here. If the whole machine is out of work,
      // report why; otherwise the other cores still have turns coming.
      bool any_work = false;
      for (const auto& c : cores_) {
        if (c->current || !c->runqueue.empty()) {
          any_work = true;
          break;
        }
      }
      if (!any_work) {
        // Virtual idle: every process is blocked, but if a deadline is
        // armed the machine is only waiting for time to pass — jump the
        // clock to the earliest deadline and fire it. kAllBlocked now
        // means "blocked with no timer able to change that".
        if (!timers_.empty()) {
          u64 to = timers_.begin()->first;
          // A cycle bound clips the jump: the caller wants control at
          // `cycle_stop` even if the earliest deadline is further out.
          if (cycle_stop != 0 && to > cycle_stop) to = cycle_stop;
          ++stats_.idle_advances;
          stats_.cycles = std::max(stats_.cycles, to);
          expire_timers();
          if (cycle_stopped()) return RunResult::kBudgetExhausted;
        } else {
          return all_exited() ? RunResult::kAllExited : RunResult::kAllBlocked;
        }
      }
    }
    if ((executed >= max_instructions || cycle_stopped()) &&
        quantum_used_ < quantum && !idle) {
      // Budget exhausted mid-turn: keep the quantum phase so a resumed run
      // (or a snapshot/restore) continues the interleave exactly where a
      // single uninterrupted run would be.
      break;
    }
    quantum_used_ = 0;
    if (cores_.size() > 1) {
      active_core_ = (active_core_ + 1) % static_cast<u32>(cores_.size());
    }
  }
  return RunResult::kBudgetExhausted;
}

void Kernel::handle_trap(Process& p, const Trap& trap, bool tf_before) {
  switch (trap.kind) {
    case TrapKind::kSyscall: {
      trace::Scope scope(trace_ptr_, trace::Category::kSyscall,
                         cpu().regs().pc);
      // Record before do_syscall overwrites r0 with the return value.
      SM_TRACE(trace_ptr_, record(trace::EventKind::kSyscall, cpu().regs().pc,
                                  regs_of(p).r[0]));
      ++stats_.syscalls;
      stats_.cycles += cfg_.cost.syscall_cost;
      SM_TRACE(trace_ptr_, charge(trace::Category::kSyscall,
                                  cfg_.cost.syscall_cost));
      do_syscall(p);
      // A single-stepped SYSCALL still owes the engine its debug trap
      // (the I-TLB got filled when the instruction was refetched).
      if (tf_before && p.alive()) {
        engine_->on_debug_step(*this, p);
      }
      break;
    }
    case TrapKind::kPageFault: {
      trace::Scope scope(trace_ptr_,
                         trap.pf.soft_miss ? trace::Category::kSoftTlbFill
                                           : trace::Category::kPageFaultTrap,
                         trap.pf.addr);
      SM_TRACE(trace_ptr_,
               record(trace::EventKind::kTrap, trap.pf.addr, pf_bits(trap.pf),
                      static_cast<trace::u8>(trap.kind)));
      if (trap.pf.soft_miss) {
        // Software-TLB fill: a lightweight trap (paper SS4.7).
        ++stats_.soft_tlb_fills;
        stats_.cycles += cfg_.cost.soft_tlb_fill;
        SM_TRACE(trace_ptr_, charge(trace::Category::kSoftTlbFill,
                                    cfg_.cost.soft_tlb_fill, trap.pf.addr));
        SM_TRACE(trace_ptr_,
                 record(trace::EventKind::kSoftTlbFill, trap.pf.addr));
        if (engine_->on_tlb_miss(*this, p, trap.pf) ==
            FaultResolution::kRetry) {
          break;
        }
        // Not a pure fill (page absent, permissions): full fault path.
      }
      ++stats_.page_faults;
      stats_.cycles += cfg_.cost.trap_cost;
      SM_TRACE(trace_ptr_, charge(trace::Category::kPageFaultTrap,
                                  cfg_.cost.trap_cost, trap.pf.addr));
      handle_page_fault(p, trap.pf);
      break;
    }
    case TrapKind::kDebugStep: {
      trace::Scope scope(trace_ptr_, trace::Category::kDebugTrap,
                         cpu().regs().pc);
      SM_TRACE(trace_ptr_, record(trace::EventKind::kTrap, cpu().regs().pc, 0,
                                  static_cast<trace::u8>(trap.kind)));
      stats_.cycles += cfg_.cost.trap_cost;
      SM_TRACE(trace_ptr_,
               charge(trace::Category::kDebugTrap, cfg_.cost.trap_cost));
      if (fault_source_ != nullptr &&
          fault_source_->drop_debug_trap(*this, p)) [[unlikely]] {
        // Injected lost debug interrupt: the CPU consumed the trap but the
        // handler never ran. Clear TF as the (never-run) handler's iret
        // would have; the single-step window is left open for the
        // invariant watchdog to find.
        regs_of(p).set_tf(false);
        break;
      }
      engine_->on_debug_step(*this, p);
      if (fault_source_ != nullptr &&
          fault_source_->duplicate_debug_trap(*this, p)) [[unlikely]] {
        // Injected spurious duplicate delivery; the handler is idempotent
        // (no pending window left), so this must absorb harmlessly.
        engine_->on_debug_step(*this, p);
      }
      break;
    }
    case TrapKind::kInvalidOpcode: {
      trace::Scope scope(trace_ptr_, trace::Category::kInvalidOpcodeTrap,
                         cpu().regs().pc);
      SM_TRACE(trace_ptr_, record(trace::EventKind::kTrap, cpu().regs().pc, 0,
                                  static_cast<trace::u8>(trap.kind)));
      ++stats_.invalid_opcode_faults;
      stats_.cycles += cfg_.cost.trap_cost;
      SM_TRACE(trace_ptr_, charge(trace::Category::kInvalidOpcodeTrap,
                                  cfg_.cost.trap_cost));
      const FaultResolution res = engine_->on_invalid_opcode(*this, p);
      if (res == FaultResolution::kUnhandled) {
        kill_process(p, ExitKind::kKilledSigill,
                     "SIGILL: invalid opcode at " + hex(cpu().regs().pc));
      }
      break;
    }
    case TrapKind::kDivideByZero:
      kill_process(p, ExitKind::kKilledSigill,
                   "SIGFPE: divide by zero at " + hex(cpu().regs().pc));
      break;
    case TrapKind::kGeneralProtection:
      kill_process(p, ExitKind::kKilledSigill,
                   "SIGILL: general protection fault at " +
                       hex(cpu().regs().pc));
      break;
  }
}

void Kernel::handle_page_fault(Process& p, const arch::PageFaultInfo& pf) {
  AddressSpace& as = *p.as;
  const Pte pte = as.pt().get(pf.addr);

  if (!pte.present()) {
    const Vma* vma = as.find_vma(pf.addr);
    if (vma == nullptr) {
      kill_process(p, ExitKind::kKilledSigsegv,
                   "SIGSEGV: unmapped address " + hex(pf.addr));
      return;
    }
    if (pf.write && !vma->writable()) {
      kill_process(p, ExitKind::kKilledSigsegv,
                   "SIGSEGV: write to read-only region " + hex(pf.addr));
      return;
    }
    ++stats_.demand_pages;
    stats_.cycles += cfg_.cost.demand_page;
    SM_TRACE(trace_ptr_, charge(trace::Category::kDemandPage,
                                cfg_.cost.demand_page, pf.addr));
    engine_->materialize(*this, p, *vma, pf.addr);
    SM_TRACE(trace_ptr_,
             record(trace::EventKind::kDemandPage, page_floor(pf.addr),
                    p.as->pt().get(pf.addr).pfn()));
    return;  // restart
  }

  // Copy-on-write has priority: "not every PF on a split page is
  // necessarily our fault" (paper §5.2).
  if (pf.write && pte.cow() && !pte.writable()) {
    handle_cow(p, pf.addr);
    return;
  }

  const FaultResolution res = engine_->on_protection_fault(*this, p, pf);
  if (res == FaultResolution::kUnhandled) {
    kill_process(p, ExitKind::kKilledSigsegv,
                 std::string("SIGSEGV: permission violation on ") +
                     (pf.fetch ? "fetch" : (pf.write ? "write" : "read")) +
                     " at " + hex(pf.addr));
  }
}

void Kernel::handle_cow(Process& p, u32 addr) {
  AddressSpace& as = *p.as;
  PageTable pt = as.pt();
  Pte pte = pt.get(addr);
  const u32 vpn = vpn_of(addr);
  ++stats_.cow_copies;
  stats_.cycles += cfg_.cost.cow_copy;
  SM_TRACE(trace_ptr_,
           charge(trace::Category::kCowCopy, cfg_.cost.cow_copy, addr));
  SM_TRACE(trace_ptr_,
           record(trace::EventKind::kCowCopy, page_floor(addr), pte.pfn()));

  const Vma* vma = as.find_vma(addr);
  if (vma == nullptr || !vma->writable()) {
    kill_process(p, ExitKind::kKilledSigsegv,
                 "SIGSEGV: COW fault outside writable region " + hex(addr));
    return;
  }

  if (const SplitPair* pair = as.split_pair(vpn)) {
    SplitPair current = *pair;
    if (pm_.refcount(current.code_frame) > 1 ||
        pm_.refcount(current.data_frame) > 1) {
      SplitPair fresh;
      fresh.code_frame = pm_.alloc_frame();
      fresh.data_frame = pm_.alloc_frame();
      std::ranges::copy(pm_.frame_bytes(current.code_frame),
                        pm_.frame_bytes(fresh.code_frame).begin());
      std::ranges::copy(pm_.frame_bytes(current.data_frame),
                        pm_.frame_bytes(fresh.data_frame).begin());
      pm_.unref_frame(current.code_frame);
      pm_.unref_frame(current.data_frame);
      as.register_split(vpn, fresh);
      pte.set_pfn(pte.pfn() == current.code_frame ? fresh.code_frame
                                                  : fresh.data_frame);
    }
    pte.set(Pte::kWritable);
    pte.clear(Pte::kCow);
    // Re-restrict: a mid-single-step COW break would otherwise leave the
    // PTE user+writable pointing at one frame of the pair, and the
    // invlpg below forces re-walks that bypass the engine's code/data
    // routing. Restricting sends the very next access back through the
    // protection engine; outside a step window the PTE was restricted
    // anyway, so this is a no-op there.
    pte.restrict_supervisor();
    pt.set(addr, pte);
    invalidate_page(p, addr);
    return;
  }

  if (pm_.refcount(pte.pfn()) > 1) {
    const u32 fresh = pm_.alloc_frame();
    std::ranges::copy(pm_.frame_bytes(pte.pfn()),
                      pm_.frame_bytes(fresh).begin());
    pm_.unref_frame(pte.pfn());
    pte.set_pfn(fresh);
  }
  pte.set(Pte::kWritable);
  pte.clear(Pte::kCow);
  pt.set(addr, pte);
  invalidate_page(p, addr);
}

// --------------------------------------------------------------------------
// SMP: TLB shootdown (DESIGN.md §16)
// --------------------------------------------------------------------------

void Kernel::invalidate_page(Process& p, u32 vaddr) {
  mmu().invlpg(vaddr);
  tlb_shootdown(p, vaddr);
}

void Kernel::tlb_shootdown(Process& p, u32 vaddr) {
  if (cores_.size() == 1 || !p.as) return;
  const u32 page = page_floor(vaddr);
  const u32 root = p.as->root();
  // A remote core can only cache this translation if its TLBs were filled
  // under p's page tables, and set_cr3 flushes both TLBs — so CR3 still
  // pointing at p's root is exactly the "may cache it" condition. (An idle
  // core keeps the CR3 of whatever it last ran: the warm-TLB migration
  // hazard this protocol exists for.)
  u32 mask = 0;
  for (u32 t = 0; t < cores_.size(); ++t) {
    if (t == active_core_) continue;
    if (cores_[t]->mmu.cr3() == root) mask |= u32{1} << t;
  }
  if (mask == 0) return;
  ++stats_.tlb_shootdowns;
  SM_TRACE(trace_ptr_, record(trace::EventKind::kTlbShootdown, page, mask));
  u32 pending_mask = 0;
  for (u32 t = 0; t < cores_.size(); ++t) {
    if ((mask & (u32{1} << t)) == 0) continue;
    bool delivered = false;
    for (u32 attempt = 0; attempt < kIpiRetryLimit && !delivered; ++attempt) {
      ++stats_.ipi_sends;
      stats_.cycles += cfg_.cost.ipi;
      SM_TRACE(trace_ptr_, record(trace::EventKind::kIpiSend, page, t));
      if (fault_source_ != nullptr &&
          fault_source_->drop_ipi(*this, p, t, page)) [[unlikely]] {
        continue;  // lost in flight; retry
      }
      delivered = true;
    }
    if (!delivered) {
      // Retries exhausted: the stale entry is still live on core t. Park
      // the shootdown — opening a single-step window over it violates I7,
      // which the watchdog detects and repairs.
      pending_mask |= u32{1} << t;
      continue;
    }
    if (fault_source_ != nullptr &&
        fault_source_->ack_without_flush(*this, p, t, page)) [[unlikely]] {
      // The target acked but its handler never flushed: a stale entry
      // survives on core t for the watchdog's remote sweep to find (I6).
      ++stats_.ipi_acks;
      SM_TRACE(trace_ptr_, record(trace::EventKind::kIpiAck, page, t));
      continue;
    }
    cores_[t]->mmu.invlpg(page);
    ++stats_.ipi_acks;
    SM_TRACE(trace_ptr_, record(trace::EventKind::kIpiAck, page, t));
  }
  if (pending_mask != 0) {
    pending_shootdowns_.push_back({vpn_of(page), root, pending_mask});
  }
}

void Kernel::complete_pending_shootdowns() {
  for (const PendingShootdown& ps : pending_shootdowns_) {
    for (u32 t = 0; t < cores_.size(); ++t) {
      if ((ps.core_mask & (u32{1} << t)) == 0) continue;
      // Direct TLB invalidation: the repair path must not be droppable by
      // the same IPI faults that parked the shootdown.
      cores_[t]->mmu.itlb().invalidate(ps.vpn);
      cores_[t]->mmu.dtlb().invalidate(ps.vpn);
    }
  }
  pending_shootdowns_.clear();
}

// --------------------------------------------------------------------------
// Syscalls
// --------------------------------------------------------------------------

void Kernel::do_syscall(Process& p, bool retried) {
  arch::Regs& regs = regs_of(p);
  const u32 num = regs.r[0];
  const u32 a1 = regs.r[1];
  const u32 a2 = regs.r[2];
  const u32 a3 = regs.r[3];

  if (cfg_.record_syscall_trace && !retried) {
    p.syscall_trace.push_back(SyscallRecord{num, a1, a2, a3});
  }

  auto block_on = [&](WaitReason reason, u64 timeout = 0) {
    p.waiting = std::move(reason);
    p.retry_syscall = true;
    p.state = ProcState::kBlocked;
    if (timeout != 0) arm_timer(p, timeout);  // re-blocking re-arms in full
    register_waiter(p);
    deschedule(p);
  };
  // A timed wait that expired re-runs its syscall with timed_out set; the
  // retry consumes the flag exactly once. Data always wins over the
  // timeout: if the wait condition is satisfiable by the time the retry
  // runs, the syscall completes normally and the expiry is invisible.
  auto timed_out_result = [&]() {
    ++stats_.wait_timeouts;
    SM_TRACE(trace_ptr_, record(trace::EventKind::kWaitTimeout, 0, num));
    regs.r[0] = kErrTimedOut;
  };
  // SYS_READ and SYS_SELECT2 and their timed forms share one body each.
  // The untimed forms pass (0, false): no deadline is armed and timed_out
  // is left alone.
  auto read_fd = [&](u64 timeout, bool expired) {
    bool blocked = false;
    const u32 n = sys_read(p, a1, a2, a3, blocked);
    if (!blocked) {
      regs.r[0] = n;
    } else if (expired) {
      timed_out_result();
    } else {
      block_on(WaitReadFd{a1}, timeout);
    }
  };
  // select2 -> which of the two fds is readable (0 or 1). fd_a has
  // priority when both are ready, so a server can drain its command
  // stream before accepting new work.
  auto select2 = [&](u64 timeout, bool expired) {
    if (fd_readable(p, a1)) {
      regs.r[0] = 0;
    } else if (fd_readable(p, a2)) {
      regs.r[0] = 1;
    } else if (expired) {
      timed_out_result();
    } else {
      block_on(WaitSelect2{a1, a2}, timeout);
    }
  };

  switch (num) {
    case kSysExit: {
      log("[exit] pid " + std::to_string(p.pid) + " code " +
          std::to_string(a1));
      deschedule(p);
      if (p.alive()) --live_procs_;
      p.state = ProcState::kZombie;
      p.exit_kind = ExitKind::kExited;
      p.exit_code = a1;
      if (cfg_.capture_exit_digest) p.exit_digest = p.as->data_digest();
      p.as.reset();
      release_all_fds(p);
      wake_exit_waiters(p);
      if (p.on_runqueue) cores_[p.rq_core]->runqueue.remove(p);
      return;
    }
    case kSysRead:
      read_fd(0, false);
      return;
    case kSysWrite: {
      bool blocked = false;
      const u32 n = sys_write(p, a1, a2, a3, blocked);
      if (blocked) {
        block_on(WaitWriteFd{a1});
        return;
      }
      regs.r[0] = n;
      return;
    }
    case kSysOpen:
      regs.r[0] = sys_open(p, a1, a2);
      return;
    case kSysClose: {
      if (a1 < p.fds.size()) {
        release_fd(p.fds[a1]);
        p.free_fd(a1);
        regs.r[0] = 0;
      } else {
        regs.r[0] = kErrResult;
      }
      return;
    }
    case kSysSpawnShell:
      regs.r[0] = sys_spawn_shell(p);
      return;
    case kSysFork:
      regs.r[0] = sys_fork(p);
      return;
    case kSysExec:
      regs.r[0] = sys_exec(p, a1);
      return;
    case kSysWaitpid: {
      Process* target = process(a1);
      if (target == nullptr) {
        regs.r[0] = kErrResult;
        return;
      }
      if (target->alive()) {
        block_on(WaitChild{a1});
        return;
      }
      regs.r[0] = target->exit_code;
      return;
    }
    case kSysGetpid:
      regs.r[0] = p.pid;
      return;
    case kSysBrk:
      regs.r[0] = sys_brk(p, a1);
      return;
    case kSysMmap:
      regs.r[0] = sys_mmap(p, a1, a2, a3);
      return;
    case kSysMunmap: {
      const u32 start = page_floor(a1);
      const u32 end = page_ceil(a1 + a2);
      p.as->remove_range(start, end);
      for (u32 va = start; va < end; va += kPageSize) invalidate_page(p, va);
      regs.r[0] = 0;
      return;
    }
    case kSysPipe: {
      if (!ensure_mapped(p, a1, 8)) {
        regs.r[0] = kErrResult;
        return;
      }
      auto pipe = std::make_shared<Pipe>();
      pipe->add_reader();
      pipe->add_writer();
      const u32 rd = p.alloc_fd(FdPipeRead{pipe});
      const u32 wr = p.alloc_fd(FdPipeWrite{pipe});
      GuestMem gm = mem_of(p);
      gm.write32(a1, rd);
      gm.write32(a1 + 4, wr);
      regs.r[0] = 0;
      return;
    }
    case kSysYield: {
      deschedule(p);
      cores_[active_core_]->runqueue.push_back(p);
      return;
    }
    case kSysTime:
      regs.r[0] = static_cast<u32>(stats_.cycles);
      return;
    case kSysMprotect:
      regs.r[0] = sys_mprotect(p, a1, a2, a3);
      return;
    case kSysDlopen:
      regs.r[0] = sys_dlopen(p, a1);
      return;
    case kSysRegisterRecovery:
      p.recovery_handler = a1;
      regs.r[0] = 0;
      return;
    case kSysRand:
      regs.r[0] = rng_next();
      return;
    case kSysSelect2:
      select2(0, false);
      return;
    case kSysSleep: {
      // sleep(cycles): park until the deadline. Returns 0.
      if (std::exchange(p.timed_out, false)) {
        regs.r[0] = 0;
        return;
      }
      if (a1 == 0) {
        regs.r[0] = 0;
        return;
      }
      ++stats_.sleeps;
      block_on(WaitSleep{}, a1);
      return;
    }
    case kSysListen:
      regs.r[0] = sys_listen(p, a1, a2);
      return;
    case kSysConnect:
      regs.r[0] = sys_connect(p, a1);
      return;
    case kSysAccept: {
      // accept(listen_fd, timeout) -> connected socket fd, ERR_TIMEDOUT
      // when the deadline passes first, ERR_RESULT on a non-listen fd.
      const bool expired = std::exchange(p.timed_out, false);
      if (a1 >= p.fds.size() ||
          !std::holds_alternative<FdListen>(p.fds[a1])) {
        regs.r[0] = kErrResult;
        return;
      }
      ListenSock& sock = *std::get<FdListen>(p.fds[a1]).sock;
      if (!sock.backlog.empty()) {
        // The queued server end, with its pipe-end references, moves
        // into the fd table.
        FdSock conn = std::move(sock.backlog.front());
        sock.backlog.pop_front();
        ++stats_.sock_accepts;
        SM_TRACE(trace_ptr_,
                 record(trace::EventKind::kSockAccept, sock.port,
                        static_cast<u32>(sock.backlog.size())));
        regs.r[0] = p.alloc_fd(std::move(conn));
        return;
      }
      if (expired) {
        timed_out_result();
        return;
      }
      block_on(WaitReadFd{a1}, a2);
      return;
    }
    case kSysReadT:
      // read_t(fd, buf, len, timeout): SYS_READ plus a deadline. A
      // separate number — the legacy form's unused argument registers
      // carry live garbage in existing guests.
      read_fd(regs.r[4], std::exchange(p.timed_out, false));
      return;
    case kSysSelect2T:
      // select2_t(fd_a, fd_b, timeout): SYS_SELECT2 plus a deadline.
      select2(a3, std::exchange(p.timed_out, false));
      return;
    default:
      log("[syscall] pid " + std::to_string(p.pid) + " bad syscall " +
          std::to_string(num));
      regs.r[0] = kErrResult;
      return;
  }
}

u32 Kernel::sys_read(Process& p, u32 fd, u32 buf, u32 len, bool& blocked) {
  if (fd >= p.fds.size()) return kErrResult;
  if (len == 0) return 0;
  if (!ensure_mapped(p, buf, len)) return kErrResult;
  std::vector<u8> tmp(len);
  u32 n = 0;

  if (auto* c = std::get_if<FdChannel>(&p.fds[fd])) {
    if (c->chan->guest_readable() == 0) {
      if (c->chan->guest_eof()) return 0;
      blocked = true;
      return 0;
    }
    n = c->chan->guest_read(std::span<u8>(tmp.data(), len));
    if (p.shell_spawned && shell_input_logger) {
      SM_TRACE(trace_ptr_, record(trace::EventKind::kSebekInput, 0, n));
      shell_input_logger(
          p, std::string(reinterpret_cast<char*>(tmp.data()), n));
    }
  } else if (Pipe* r = read_end(p.fds[fd])) {
    if (r->readable() == 0) {
      if (r->eof()) return 0;
      blocked = true;
      return 0;
    }
    n = r->read(std::span<u8>(tmp.data(), len));
    // Handoff: bytes left behind belong to the next sleeping reader, and
    // the space just freed lets one sleeping writer make progress.
    if (r->readable() > 0) wake_one(r->read_waiters);
    wake_one(r->write_waiters);
  } else if (auto* f = std::get_if<FdFile>(&p.fds[fd])) {
    const auto& bytes = f->node->bytes;
    if (f->offset >= bytes.size()) return 0;
    n = std::min<u32>(len, static_cast<u32>(bytes.size()) - f->offset);
    std::memcpy(tmp.data(), bytes.data() + f->offset, n);
    f->offset += n;
  } else if (std::holds_alternative<FdConsole>(p.fds[fd])) {
    return 0;
  } else {
    return kErrResult;
  }

  GuestMem gm = mem_of(p);
  if (!gm.write(buf, std::span<const u8>(tmp.data(), n))) return kErrResult;
  return n;
}

u32 Kernel::sys_write(Process& p, u32 fd, u32 buf, u32 len, bool& blocked) {
  if (fd >= p.fds.size()) return kErrResult;
  if (len == 0) return 0;
  if (!ensure_mapped(p, buf, len)) return kErrResult;
  std::vector<u8> tmp(len);
  GuestMem gm = mem_of(p);
  if (!gm.read(buf, std::span<u8>(tmp.data(), len))) return kErrResult;

  if (auto* c = std::get_if<FdChannel>(&p.fds[fd])) {
    c->chan->guest_write(tmp);
    return len;
  }
  if (Pipe* w = write_end(p.fds[fd])) {
    if (w->read_closed()) return kErrResult;  // EPIPE
    const u32 n = w->write(tmp);
    if (n == 0) {
      blocked = true;
      return 0;
    }
    // Wake exactly one sleeping reader — it hands off to the next if it
    // leaves bytes behind, so a fan-in pipe never thunders the herd. Any
    // space still left can also admit one more sleeping writer.
    wake_one(w->read_waiters);
    if (w->writable() > 0) wake_one(w->write_waiters);
    return n;
  }
  if (std::holds_alternative<FdConsole>(p.fds[fd])) {
    p.console.append(reinterpret_cast<char*>(tmp.data()), len);
    return len;
  }
  if (auto* f = std::get_if<FdFile>(&p.fds[fd])) {
    if (!f->writable) return kErrResult;
    auto& bytes = f->node->bytes;
    if (f->offset + len > bytes.size()) bytes.resize(f->offset + len);
    std::memcpy(bytes.data() + f->offset, tmp.data(), len);
    f->offset += len;
    return len;
  }
  return kErrResult;
}

// --------------------------------------------------------------------------
// Sockets
//
// A deliberately small model of the paper's network-facing server: one
// namespace of ports, a bounded accept backlog per listener, and connect()
// that REFUSES (never blocks) when the backlog is full — overload is
// visible at the edge, where a real SYN queue would drop, instead of
// accumulating invisibly inside the kernel.
// --------------------------------------------------------------------------

u32 Kernel::sys_listen(Process& p, u32 port, u32 backlog) {
  if (listen_ports_.contains(port)) return kErrResult;  // port in use
  auto sock = std::make_shared<ListenSock>();
  sock->port = port;
  sock->capacity = std::clamp<u32>(backlog, 1, 1024);
  sock->refs = 1;
  listen_ports_.emplace(port, sock);
  return p.alloc_fd(FdListen{std::move(sock)});
}

u32 Kernel::sys_connect(Process& p, u32 port) {
  const auto it = listen_ports_.find(port);
  if (it == listen_ports_.end() || it->second->full()) {
    ++stats_.sock_refused;
    SM_TRACE(trace_ptr_,
             record(trace::EventKind::kSockRefused, port,
                    it == listen_ports_.end()
                        ? 0
                        : static_cast<u32>(it->second->backlog.size())));
    return kErrRefused;
  }
  if (fault_source_ != nullptr &&
      fault_source_->drop_connection(*this, p, port)) [[unlikely]] {
    // Injected in-flight drop: indistinguishable from a full backlog to
    // the caller, so the same retry/backoff path must absorb it.
    ++stats_.sock_refused;
    SM_TRACE(trace_ptr_,
             record(trace::EventKind::kSockRefused, port,
                    static_cast<u32>(it->second->backlog.size()), 1));
    return kErrRefused;
  }
  ListenSock& sock = *it->second;
  auto c2s = std::make_shared<Pipe>();
  auto s2c = std::make_shared<Pipe>();
  c2s->add_writer();  // client tx ............. released with the client fd
  c2s->add_reader();  // server rx ....... held by the backlog until accept()
  s2c->add_reader();  // client rx
  s2c->add_writer();  // server tx
  sock.backlog.push_back(FdSock{.rx = c2s, .tx = s2c});
  ++stats_.sock_connects;
  stats_.sock_backlog_peak =
      std::max<u64>(stats_.sock_backlog_peak, sock.backlog.size());
  SM_TRACE(trace_ptr_,
           record(trace::EventKind::kSockConnect, port,
                  static_cast<u32>(sock.backlog.size())));
  // The queued connection may satisfy a parked accept()/select2.
  wake_one(sock.accept_waiters);
  return p.alloc_fd(FdSock{.rx = s2c, .tx = c2s});
}

u32 Kernel::sys_open(Process& p, u32 path_ptr, u32 flags) {
  GuestMem gm = mem_of(p);
  ensure_mapped(p, path_ptr, 1);
  const auto path = gm.read_cstr(path_ptr);
  if (!path) return kErrResult;
  std::shared_ptr<FileNode> node;
  if (flags & kOpenWrite) {
    node = fs_.create(*path, /*truncate=*/true);
  } else {
    node = fs_.lookup(*path);
    if (node == nullptr) return kErrResult;
  }
  return p.alloc_fd(FdFile{node, 0, (flags & kOpenWrite) != 0});
}

u32 Kernel::sys_brk(Process& p, u32 new_end) {
  AddressSpace& as = *p.as;
  if (new_end == 0) return as.brk_end;
  if (new_end < as.brk_end) return as.brk_end;  // shrink: ignored
  const u32 new_top = page_ceil(new_end);
  Vma* heap = nullptr;
  for (Vma& v : as.vmas()) {
    if (v.kind == VmaKind::kHeap) heap = &v;
  }
  if (heap == nullptr) {
    if (new_top > kHeapBase) {
      Vma vma;
      vma.start = kHeapBase;
      vma.end = new_top;
      vma.prot = kProtR | kProtW;
      vma.kind = VmaKind::kHeap;
      vma.name = "heap";
      as.add_vma(std::move(vma));
    }
  } else if (new_top > heap->end) {
    heap->end = new_top;
  }
  as.brk_end = new_end;
  return as.brk_end;
}

u32 Kernel::sys_mmap(Process& p, u32 hint, u32 len, u32 prot) {
  if (len == 0) return kErrResult;
  const u32 size = page_ceil(len);
  AddressSpace& as = *p.as;
  u32 base = 0;
  if (hint != 0 && (hint & arch::kPageMask) == 0) {
    const bool free = std::ranges::none_of(as.vmas(), [&](const Vma& v) {
      return hint < v.end && v.start < hint + size;
    });
    if (free) base = hint;
  }
  if (base == 0) {
    try {
      base = as.find_mmap_gap(size);
    } catch (const std::exception&) {
      return kErrResult;
    }
  }
  Vma vma;
  vma.start = base;
  vma.end = base + size;
  vma.prot = prot;
  vma.kind = VmaKind::kMmap;
  vma.name = "mmap";
  as.add_vma(std::move(vma));
  return base;
}

u32 Kernel::sys_mprotect(Process& p, u32 addr, u32 len, u32 prot) {
  if (len == 0) return 0;
  const u32 start = page_floor(addr);
  const u32 end = page_ceil(addr + len);
  AddressSpace& as = *p.as;
  Vma* vma = as.find_vma(start);
  if (vma == nullptr || end > vma->end) return kErrResult;

  if (vma->start != start || vma->end != end) {
    // Split the VMA so exactly [start,end) changes protection.
    Vma middle = *vma;
    Vma left = *vma;
    Vma right = *vma;
    const Vma original = *vma;
    std::vector<Vma> pieces;
    if (original.start < start) {
      left.end = start;
      pieces.push_back(left);
    }
    middle.start = start;
    middle.end = end;
    middle.backing_offset =
        original.backing_offset + (start - original.start);
    pieces.push_back(middle);
    if (original.end > end) {
      right.start = end;
      right.backing_offset = original.backing_offset + (end - original.start);
      pieces.push_back(right);
    }
    // Replace in place.
    auto& vmas = as.vmas();
    const auto it = std::ranges::find_if(
        vmas, [&](const Vma& v) { return v.start == original.start; });
    vmas.erase(it);
    for (Vma& piece : pieces) vmas.push_back(piece);
    vma = as.find_vma(start);
  }
  vma->prot = prot;
  engine_->on_mprotect(*this, p, *vma, start, end);
  return 0;
}

u32 Kernel::sys_fork(Process& parent) {
  auto childp = std::make_unique<Process>();
  Process& child = *childp;
  child.pid = next_pid_++;
  child.parent = parent.pid;
  child.name = parent.name;
  child.fds = parent.fds;  // shared channel/pipe/file objects
  child.free_fds = parent.free_fds;  // same holes, same reuse order
  retain_fds(child.fds);
  child.as = std::make_unique<AddressSpace>(pm_);
  child.as->brk_end = parent.as->brk_end;
  child.as->vmas() = parent.as->vmas();
  child.as->split_pages() = parent.as->split_pages();

  PageTable ppt = parent.as->pt();
  PageTable cpt = child.as->pt();
  std::vector<std::pair<u32, Pte>> mappings;
  ppt.for_each_mapping(
      [&](u32 vaddr, Pte pte) { mappings.emplace_back(vaddr, pte); });
  for (auto& [vaddr, pte] : mappings) {
    const u32 vpn = vpn_of(vaddr);
    if (const SplitPair* pair = parent.as->split_pair(vpn)) {
      pm_.ref_frame(pair->code_frame);
      pm_.ref_frame(pair->data_frame);
    } else {
      pm_.ref_frame(pte.pfn());
    }
    Pte shared = pte;
    if (shared.writable()) {
      shared.clear(Pte::kWritable);
      shared.set(Pte::kCow);
    } else if (shared.cow()) {
      // Already COW from an earlier fork: keep as is.
    }
    ppt.set(vaddr, shared);
    cpt.set(vaddr, shared);
    // Drop cached writable entries for the parent — on every core that may
    // hold them, not just the one running the fork.
    invalidate_page(parent, vaddr);
  }

  child.regs = regs_of(parent);
  child.regs.r[0] = 0;  // fork() returns 0 in the child
  child.state = ProcState::kRunnable;
  const Pid cpid = child.pid;
  procs_.push_back(std::move(childp));
  ++live_procs_;
  home_core(child).runqueue.push_back(child);
  engine_->on_fork(*this, parent, child);
  return cpid;
}

u32 Kernel::sys_exec(Process& p, u32 path_ptr) {
  GuestMem gm = mem_of(p);
  ensure_mapped(p, path_ptr, 1);
  const auto path = gm.read_cstr(path_ptr);
  if (!path) return kErrResult;
  const image::Image* img = find_image(*path);
  if (img == nullptr) return kErrResult;
  if (!image_allowed(*img)) {
    log("[exec] pid " + std::to_string(p.pid) + " refused " + *path +
        ": bad signature");
    return kErrResult;
  }
  load_into(p, *img);
  // The syscall path runs with p current: activate the fresh address space.
  regs_of(p) = p.regs;
  mmu().set_cr3(p.as->root());
  return 0;  // "returns" into the new program at its entry point
}

u32 Kernel::sys_dlopen(Process& p, u32 path_ptr) {
  GuestMem gm = mem_of(p);
  ensure_mapped(p, path_ptr, 1);
  const auto path = gm.read_cstr(path_ptr);
  if (!path) return kErrResult;
  const image::Image* img = find_image(*path);
  if (img == nullptr) return kErrResult;
  if (!image_allowed(*img)) {
    log("[dlopen] pid " + std::to_string(p.pid) + " refused " + *path +
        ": bad signature (DigSig-style verification)");
    return kErrResult;
  }
  u32 base = UINT32_MAX;
  try {
    for (const image::Segment& seg : img->segments) {
      Vma vma;
      vma.start = page_floor(seg.vaddr);
      vma.end = page_ceil(seg.vaddr + seg.mem_size);
      vma.prot = seg.prot;
      vma.kind = VmaKind::kLibrary;
      vma.name = img->name + ":" + seg.name;
      vma.backing = std::make_shared<const std::vector<u8>>(seg.bytes);
      vma.backing_offset = 0;
      const u32 seg_start = vma.start;
      p.as->add_vma(std::move(vma));
      base = std::min(base, seg_start);
    }
  } catch (const std::invalid_argument&) {
    return kErrResult;  // overlap with existing mappings
  }
  log("[dlopen] pid " + std::to_string(p.pid) + " loaded " + *path);
  return base;
}

u32 Kernel::sys_spawn_shell(Process& p) {
  p.shell_spawned = true;
  log("[SHELL] pid " + std::to_string(p.pid) + " (" + p.name +
      ") spawned a shell at cycle " + std::to_string(stats_.cycles));
  // The shell inherits the process' network socket, as connect-back
  // shellcode does.
  if (std::holds_alternative<FdChannel>(p.fds[kFdNet])) {
    return p.alloc_fd(p.fds[kFdNet]);
  }
  return p.alloc_fd(FdConsole{});
}

// --------------------------------------------------------------------------
// Default (no-protection) engine
// --------------------------------------------------------------------------

void ProtectionEngine::on_debug_step(Kernel&, Process&) {}

FaultResolution ProtectionEngine::on_invalid_opcode(Kernel&, Process&) {
  return FaultResolution::kUnhandled;
}

void ProtectionEngine::on_fork(Kernel&, Process&, Process&) {}

FaultResolution ProtectionEngine::on_tlb_miss(Kernel& k, Process& p,
                                              const arch::PageFaultInfo& pf) {
  const Pte pte = p.as->pt().get(pf.addr);
  if (!pte.present() || !pte.user()) return FaultResolution::kUnhandled;
  k.mmu().insert_tlb_entry(pf.fetch, vpn_of(pf.addr), pte.pfn(),
                           /*user=*/true, pte.writable(), pte.no_exec());
  return FaultResolution::kRetry;
}

void ProtectionEngine::on_mprotect(Kernel& k, Process& p, Vma& vma, u32 start,
                                   u32 end) {
  PageTable pt = p.as->pt();
  for (u32 va = start; va < end; va += kPageSize) {
    Pte pte = pt.get(va);
    if (!pte.present()) continue;
    if (vma.writable()) {
      pte.set(Pte::kWritable);
    } else {
      pte.clear(Pte::kWritable);
    }
    pt.set(va, pte);
    k.invalidate_page(p, va);
  }
}

void NoProtectionEngine::materialize(Kernel& k, Process& p, const Vma& vma,
                                     u32 vaddr) {
  const u32 page = page_floor(vaddr);
  const u32 frame = k.alloc_initial_frame(p, vma, page);
  u32 flags = Pte::kPresent | Pte::kUser;
  if (vma.writable()) flags |= Pte::kWritable;
  p.as->pt().set(page, Pte::make(frame, flags));
}

FaultResolution NoProtectionEngine::on_protection_fault(Kernel&, Process&,
                                                        const PageFaultInfo&) {
  return FaultResolution::kUnhandled;
}

}  // namespace sm::kernel
