// Connected sockets and the accept backlog: a socket fd reads one pipe and
// writes another, so its blocking, wakeups, EOF and EPIPE follow the pipe
// rules; a listener closed with connections still queued tears them down
// as peer closes. Each guest prints its syscall results to the console
// (`show`: "0x%08x\n" of r0), and the tests compare the consoles.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <variant>

#include "support/guest_runner.h"

namespace sm {
namespace {

using arch::u32;
using core::ProtectionMode;
using testing::GuestRun;
using testing::start_guest;

constexpr arch::u64 kBudget = 50'000'000;

// Appended to every guest: show prints r0 to the console.
const char* kShow = R"(
.text
show:
  mov r2, r0
  movi r1, FD_CONSOLE
  jmp put_hex_fd
)";

GuestRun boot(const std::string& body) {
  return start_guest(body + kShow, ProtectionMode::kSplitAll);
}

// What show prints for one result.
std::string hex(u32 v) {
  char b[16];
  std::snprintf(b, sizeof b, "0x%08x\n", v);
  return b;
}

// The one process other than the guest's first.
const kernel::Process& other(GuestRun& r) {
  for (const auto& p : r.k->processes()) {
    if (p->pid != r.pid) return *p;
  }
  ADD_FAILURE() << "no second process";
  return r.proc();
}

// Whether p sleeps in a wait of kind W on a connected socket.
template <class W>
bool blocked_on_socket(const kernel::Process& p) {
  const auto* w = std::get_if<W>(&p.waiting);
  return p.state == kernel::ProcState::kBlocked && w != nullptr &&
         w->fd < p.fds.size() &&
         std::holds_alternative<kernel::FdSock>(p.fds[w->fd]);
}

// The server reads before the client has written: the read sleeps on the
// socket until the client's write wakes it.
TEST(Sockets, BlockedReaderWakesOnPeerWrite) {
  auto r = boot(R"(
_start:
  movi r0, SYS_LISTEN
  movi r1, 7
  movi r2, 4
  syscall
  movi r4, lfd
  store [r4], r0
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz client
  movi r4, cpid
  store [r4], r0
  movi r0, SYS_ACCEPT
  movi r4, lfd
  load r1, [r4]
  movi r2, 0
  syscall
  movi r4, sfd
  store [r4], r0
  movi r0, SYS_READ       ; nothing sent yet: sleeps on the socket
  movi r4, sfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  syscall
  call show
  movi r0, SYS_WRITE
  movi r1, FD_CONSOLE
  movi r2, buf
  movi r3, 4
  syscall
  movi r4, cpid
  load r1, [r4]
  movi r0, SYS_WAITPID
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
client:
  movi r0, SYS_CONNECT
  movi r1, 7
  syscall
  movi r4, cfd
  store [r4], r0
  movi r0, SYS_SLEEP
  movi r1, 2000000
  syscall
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, msg
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.data
msg: .ascii "ping"
.bss
lfd: .space 4
sfd: .space 4
cfd: .space 4
cpid: .space 4
buf: .space 16
)");
  r.k->run(kBudget, /*cycle_stop=*/1'000'000);  // mid-way through the sleep
  EXPECT_TRUE(blocked_on_socket<kernel::WaitReadFd>(r.proc()));
  r.k->run(kBudget);
  ASSERT_TRUE(r.k->all_exited());
  EXPECT_EQ(r.console(), hex(4) + "ping");
}

// The client writes, forks and closes its socket before the server reads.
// The server still gets the buffered bytes, then waits for the forked
// holder, and reads 0 only after that holder is gone and nothing is left.
TEST(Sockets, EofOnlyAfterEveryHolderClosesAndBytesDrain) {
  auto r = boot(R"(
_start:
  movi r0, SYS_LISTEN
  movi r1, 7
  movi r2, 4
  syscall
  movi r4, lfd
  store [r4], r0
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz client
  movi r4, cpid
  store [r4], r0
  movi r0, SYS_ACCEPT
  movi r4, lfd
  load r1, [r4]
  movi r2, 0
  syscall
  movi r4, sfd
  store [r4], r0
  movi r0, SYS_SLEEP      ; the client sends, forks and closes meanwhile
  movi r1, 1000000
  syscall
  call drain              ; the buffered "abcd"
  call drain              ; sleeps until the holder sends "efgh"
  call drain              ; 0: no holder left and nothing buffered
  movi r4, cpid
  load r1, [r4]
  movi r0, SYS_WAITPID
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
drain:                    ; one read of the socket: its result, its bytes
  movi r0, SYS_READ
  movi r4, sfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  syscall
  push r0
  call show
  pop r3
  movi r0, SYS_WRITE
  movi r1, FD_CONSOLE
  movi r2, buf
  syscall
  ret
client:
  movi r0, SYS_CONNECT
  movi r1, 7
  syscall
  movi r4, cfd
  store [r4], r0
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, msg1
  movi r3, 4
  syscall
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz holder
  movi r0, SYS_CLOSE
  movi r4, cfd
  load r1, [r4]
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
holder:                   ; keeps the socket open past the client's close
  movi r0, SYS_SLEEP
  movi r1, 5000000
  syscall
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, msg2
  movi r3, 4
  syscall
  movi r0, SYS_EXIT       ; closes the last client end
  movi r1, 0
  syscall
.data
msg1: .ascii "abcd"
msg2: .ascii "efgh"
.bss
lfd: .space 4
sfd: .space 4
cfd: .space 4
cpid: .space 4
buf: .space 16
)");
  r.k->run(kBudget);
  ASSERT_TRUE(r.k->all_exited());
  EXPECT_EQ(r.console(), hex(4) + "abcd" + hex(4) + "efgh" + hex(0));
}

// The client fills the socket and sleeps in one more write; the server's
// close wakes it with EPIPE, and a write after that fails at once.
TEST(Sockets, WriteAfterPeerCloseFails) {
  auto r = boot(R"(
_start:
  movi r0, SYS_LISTEN
  movi r1, 7
  movi r2, 4
  syscall
  movi r4, lfd
  store [r4], r0
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz client
  movi r4, cpid
  store [r4], r0
  movi r0, SYS_ACCEPT
  movi r4, lfd
  load r1, [r4]
  movi r2, 0
  syscall
  movi r4, sfd
  store [r4], r0
  movi r0, SYS_SLEEP      ; the client fills the socket and blocks
  movi r1, 2000000
  syscall
  movi r0, SYS_CLOSE
  movi r4, sfd
  load r1, [r4]
  syscall
  movi r4, cpid
  load r1, [r4]
  movi r0, SYS_WAITPID
  syscall
  call show
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
client:
  movi r0, SYS_CONNECT
  movi r1, 7
  syscall
  movi r4, cfd
  store [r4], r0
  movi r5, 65536
fill:
  push r5
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, block
  movi r3, 4096
  syscall
  pop r5
  sub r5, r0
  cmpi r5, 0
  jnz fill
  movi r0, SYS_WRITE      ; the socket is full: sleeps until the close
  movi r4, cfd
  load r1, [r4]
  movi r2, block
  movi r3, 4
  syscall
  call show
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, block
  movi r3, 4
  syscall
  call show
  movi r0, SYS_EXIT
  movi r1, 7
  syscall
.bss
lfd: .space 4
sfd: .space 4
cfd: .space 4
cpid: .space 4
block: .space 4096
)");
  r.k->run(kBudget, /*cycle_stop=*/1'000'000);
  EXPECT_TRUE(blocked_on_socket<kernel::WaitWriteFd>(other(r)));
  r.k->run(kBudget);
  ASSERT_TRUE(r.k->all_exited());
  EXPECT_EQ(r.console(), hex(7));
  EXPECT_EQ(other(r).console,
            hex(kernel::kErrResult) + hex(kernel::kErrResult));
}

// The last listen fd closes with a connection queued and never accepted:
// the client sleeping in a read of it wakes at EOF, its write fails, and
// the port is free to listen on again.
TEST(Sockets, ListenCloseTearsDownQueuedConnection) {
  auto r = boot(R"(
_start:
  movi r0, SYS_LISTEN
  movi r1, 9
  movi r2, 4
  syscall
  movi r4, lfd
  store [r4], r0
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz client
  movi r4, cpid
  store [r4], r0
  movi r0, SYS_SLEEP      ; the client connects and sleeps in a read
  movi r1, 2000000
  syscall
  movi r0, SYS_CLOSE      ; the last listen fd
  movi r4, lfd
  load r1, [r4]
  syscall
  movi r4, cpid
  load r1, [r4]
  movi r0, SYS_WAITPID
  syscall
  call show
  movi r0, SYS_LISTEN
  movi r1, 9
  movi r2, 4
  syscall
  call show
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
client:
  movi r0, SYS_CLOSE      ; the inherited listen fd
  movi r4, lfd
  load r1, [r4]
  syscall
  movi r0, SYS_CONNECT
  movi r1, 9
  syscall
  movi r4, cfd
  store [r4], r0
  movi r0, SYS_READ
  movi r4, cfd
  load r1, [r4]
  movi r2, buf
  movi r3, 4
  syscall
  call show
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, buf
  movi r3, 4
  syscall
  call show
  movi r0, SYS_EXIT
  movi r1, 7
  syscall
.bss
lfd: .space 4
cfd: .space 4
cpid: .space 4
buf: .space 4
)");
  r.k->run(kBudget, /*cycle_stop=*/1'000'000);
  EXPECT_TRUE(blocked_on_socket<kernel::WaitReadFd>(other(r)));
  ASSERT_GT(r.proc().fds.size(), 2u);
  const auto* l = std::get_if<kernel::FdListen>(&r.proc().fds[2]);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->sock->backlog.size(), 1u);
  r.k->run(kBudget);
  ASSERT_TRUE(r.k->all_exited());
  EXPECT_EQ(other(r).console, hex(0) + hex(kernel::kErrResult));
  // The child's exit code, then the new listen fd in the freed slot.
  EXPECT_EQ(r.console(), hex(7) + hex(2));
  EXPECT_EQ(r.k->stats().sock_accepts, 0u);
}

// select2 and the timed waits over a socket and a pipe: each timed wait
// expires while nothing is ready, and each wait returns for the event
// that satisfies it.
TEST(Sockets, Select2AndTimedWaitsOverASocketAndAPipe) {
  auto r = boot(R"(
_start:
  movi r0, SYS_PIPE
  movi r1, pfd
  syscall
  movi r0, SYS_LISTEN
  movi r1, 11
  movi r2, 4
  syscall
  movi r4, lfd
  store [r4], r0
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz client
  movi r4, cpid
  store [r4], r0
  movi r0, SYS_CLOSE      ; the client holds the pipe's only write end
  movi r4, pfd
  load r1, [r4+4]
  syscall
  movi r0, SYS_ACCEPT
  movi r4, lfd
  load r1, [r4]
  movi r2, 0
  syscall
  movi r4, sfd
  store [r4], r0
  movi r0, SYS_SELECT2_T  ; nothing ready: times out
  movi r4, sfd
  load r1, [r4]
  movi r4, pfd
  load r2, [r4]
  movi r3, 100000
  syscall
  call show
  movi r0, SYS_READ_T     ; an empty socket: times out
  movi r4, sfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  movi r4, 100000
  syscall
  call show
  movi r0, SYS_READ_T     ; an empty pipe: times out
  movi r4, pfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  movi r4, 100000
  syscall
  call show
  movi r0, SYS_SELECT2    ; 1: the socket, once the client sends
  movi r4, pfd
  load r1, [r4]
  movi r4, sfd
  load r2, [r4]
  syscall
  call show
  movi r0, SYS_READ_T     ; 4: bytes are ready, the timeout never fires
  movi r4, sfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  movi r4, 100000
  syscall
  call show
  movi r0, SYS_SELECT2_T  ; 1: the pipe, once the client writes it
  movi r4, sfd
  load r1, [r4]
  movi r4, pfd
  load r2, [r4]
  movi r3, 10000000
  syscall
  call show
  movi r0, SYS_READ
  movi r4, pfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  syscall
  call show
  movi r0, SYS_SELECT2_T  ; 0: the client's exit puts both at EOF, and
                          ; the first fd wins
  movi r4, sfd
  load r1, [r4]
  movi r4, pfd
  load r2, [r4]
  movi r3, 10000000
  syscall
  call show
  movi r0, SYS_READ
  movi r4, sfd
  load r1, [r4]
  movi r2, buf
  movi r3, 16
  syscall
  call show
  movi r4, cpid
  load r1, [r4]
  movi r0, SYS_WAITPID
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
client:
  movi r0, SYS_CONNECT
  movi r1, 11
  syscall
  movi r4, cfd
  store [r4], r0
  movi r0, SYS_SLEEP
  movi r1, 2000000
  syscall
  movi r0, SYS_WRITE
  movi r4, cfd
  load r1, [r4]
  movi r2, msg
  movi r3, 4
  syscall
  movi r0, SYS_SLEEP
  movi r1, 2000000
  syscall
  movi r0, SYS_WRITE
  movi r4, pfd
  load r1, [r4+4]
  movi r2, msg
  movi r3, 4
  syscall
  movi r0, SYS_SLEEP
  movi r1, 2000000
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.data
msg: .ascii "data"
.bss
pfd: .space 8
lfd: .space 4
sfd: .space 4
cfd: .space 4
cpid: .space 4
buf: .space 16
)");
  r.k->run(kBudget);
  ASSERT_TRUE(r.k->all_exited());
  const std::string timed_out = hex(kernel::kErrTimedOut);
  EXPECT_EQ(r.console(), timed_out + timed_out + timed_out + hex(1) + hex(4) +
                             hex(1) + hex(4) + hex(0) + hex(0));
  EXPECT_EQ(r.k->stats().wait_timeouts, 3u);
}

}  // namespace
}  // namespace sm
