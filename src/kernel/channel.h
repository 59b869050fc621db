// Byte-stream endpoints connecting guests to the host harness and to each
// other: Channel models a network socket (the exploit delivery path in
// every paper attack), Pipe models a Unix pipe (the unixbench "pipe-based
// context switching" stressor of Fig. 7/9).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/types.h"

namespace sm::snapshot {
struct Access;
}

namespace sm::kernel {

using arch::u32;
using arch::u8;

// A bidirectional host<->guest byte stream (simulated TCP connection).
class Channel {
 public:
  // Host side (the "attacker"/"client" machine).
  void host_write(std::span<const u8> bytes);
  void host_write(const std::string& s);
  std::vector<u8> host_read_all();
  std::string host_read_string();
  std::size_t host_readable() const { return to_host_.size(); }
  void host_close() { host_closed_ = true; }

  // Guest side (used by the kernel on behalf of read/write syscalls).
  std::size_t guest_readable() const { return to_guest_.size(); }
  bool guest_eof() const { return host_closed_ && to_guest_.empty(); }
  u32 guest_read(std::span<u8> out);
  void guest_write(std::span<const u8> bytes);

  // Total bytes that crossed the link guest→host (network model input).
  arch::u64 bytes_to_host() const { return bytes_to_host_; }

 private:
  friend struct sm::snapshot::Access;

  std::deque<u8> to_guest_;
  std::deque<u8> to_host_;
  bool host_closed_ = false;
  arch::u64 bytes_to_host_ = 0;
};

class Pipe;

// A connected socket end (SYS_CONNECT / SYS_ACCEPT): one pipe per
// direction, this holder being the reader of rx and the writer of tx.
struct FdSock {
  std::shared_ptr<Pipe> rx;
  std::shared_ptr<Pipe> tx;
};

// A simulated listening socket: a port-keyed accept queue of established
// connections, bounded by `capacity`. Each queued connection is the server
// end connect() made: an FdSock whose rx the client writes (client->server)
// and whose tx the client reads (server->client); accept() moves it into
// the fd table. When the queue is full, further connects are REFUSED
// immediately — the SYN-queue-overflow model, and the kernel-level
// load-shedding point of the overload stack. Reference-counted like a pipe
// end (fork duplicates the listen fd); the kernel deregisters the port
// when the last holder closes.
struct ListenSock {
  u32 port = 0;
  u32 capacity = 0;  // accept-queue bound (>= 1)
  int refs = 0;      // fd-table holders across fork
  std::deque<FdSock> backlog;  // server ends, in connect (FIFO) order

  // Pids blocked in accept() (or select2 on the listen fd), FIFO, drained
  // by the kernel with the same stale-entry re-validation as pipe waiters.
  std::deque<u32> accept_waiters;

  bool full() const { return backlog.size() >= capacity; }
};

// A unidirectional kernel pipe with a bounded buffer. End references are
// counted (dup'ed by fork, dropped by close and by process exit) so EOF
// and EPIPE fire exactly when the LAST holder of an end goes away.
class Pipe {
 public:
  static constexpr std::size_t kCapacity = 65536;

  std::size_t readable() const { return buf_.size(); }
  std::size_t writable() const { return kCapacity - buf_.size(); }
  bool eof() const { return writers_ == 0 && buf_.empty(); }

  u32 read(std::span<u8> out);
  u32 write(std::span<const u8> in);  // partial writes allowed

  void add_reader() { ++readers_; }
  void add_writer() { ++writers_; }
  void remove_reader() {
    if (readers_ > 0) --readers_;
  }
  void remove_writer() {
    if (writers_ > 0) --writers_;
  }
  bool read_closed() const { return readers_ == 0; }

  // Wait queues, owned and drained by the kernel: pids blocked reading an
  // empty pipe / writing a full one, in block (FIFO) order. Entries may go
  // stale (the process was woken through another queue or died); the
  // kernel re-validates at wake time and skips them.
  std::deque<u32> read_waiters;
  std::deque<u32> write_waiters;

 private:
  friend struct sm::snapshot::Access;

  std::deque<u8> buf_;
  int readers_ = 0;
  int writers_ = 0;
};

}  // namespace sm::kernel
