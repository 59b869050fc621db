#include "snapshot/serializer.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "image/sha256.h"

namespace sm::snapshot {

namespace {

const char* kind_name(FieldKind k) {
  switch (k) {
    case FieldKind::kU8: return "u8";
    case FieldKind::kU32: return "u32";
    case FieldKind::kU64: return "u64";
    case FieldKind::kBool: return "bool";
    case FieldKind::kStr: return "str";
    case FieldKind::kBytes: return "bytes";
    case FieldKind::kGroupBegin: return "group";
    case FieldKind::kGroupEnd: return "end";
  }
  return "?";
}

std::string hex64(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Writer::Writer(std::ostream& os) : os_(&os) {
  const std::ostream::sentry ok(os);
  if (ok) sb_ = os.rdbuf();
  put(kMagic, sizeof kMagic);
  raw32(kFormatVersion);
}

void Writer::failed() {
  sb_ = nullptr;
  os_->setstate(std::ios::badbit);
}

void Writer::tag(FieldKind k, const char* name) {
  const std::size_t n = std::strlen(name);
  put8(static_cast<u8>(k));
  put8(static_cast<u8>(n));  // field names are short by construction
  put(name, n);
}

Reader::Reader(std::istream& is) : sb_(is.rdbuf()) {
  const std::istream::sentry ok(is, /*noskipws=*/true);
  if (!ok) fail("stream not readable");
  char magic[8] = {};
  read_exact(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    fail("bad magic (not a snapshot file)");
  }
  const u32 version = get32();
  if (version != kFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (expected " + std::to_string(kFormatVersion) + ")");
  }
}

void Reader::fail(const std::string& why) {
  std::string ctx = why;
  if (lens_[last_] != 0) {
    ctx += " (after field '" + std::string(names_[last_], lens_[last_]) + "')";
  }
  throw SnapshotError(ctx);
}

void Reader::truncated(const char* what) {
  fail(std::string("truncated stream reading ") + what);
}

void Reader::read_exact(void* out, std::size_t n, const char* what) {
  const auto want = static_cast<std::streamsize>(n);
  if (want != 0 && sb_->sgetn(static_cast<char*>(out), want) != want) {
    truncated(what);
  }
}

int Reader::read_name() {
  const int next = 1 - last_;
  const int len = bump("field name length");
  for (int i = 0; i < len; ++i) {
    names_[next][i] = static_cast<char>(bump("field name"));
  }
  lens_[next] = static_cast<u8>(len);
  return next;
}

void Reader::expect(FieldKind k, const char* name) {
  const int kind = bump("field kind");
  const int next = read_name();
  const std::string_view got(names_[next], lens_[next]);
  if (kind != static_cast<int>(k) || got != name) {
    fail("expected " + std::string(kind_name(k)) + " '" + name + "', found " +
         kind_name(static_cast<FieldKind>(kind)) + " '" + std::string(got) +
         "'");
  }
  last_ = next;
}

bool Reader::next_field(FieldKind& kind, std::string_view& name) {
  const int k = sb_->sbumpc();
  if (k == std::char_traits<char>::eof()) return false;
  last_ = read_name();
  kind = static_cast<FieldKind>(k);
  name = std::string_view(names_[last_], lens_[last_]);
  return true;
}

void Reader::get_str(std::string& v) {
  const u32 n = get32();
  if (n > kMaxStrLen) fail("string length " + std::to_string(n) + " over cap");
  v.resize(n);
  read_exact(v.data(), n, "string payload");
}

void Reader::get_bytes(std::vector<u8>& v) {
  const u32 n = get32();
  if (n > kMaxBytesLen) fail("bytes length " + std::to_string(n) + " over cap");
  v.resize(n);
  read_exact(v.data(), n, "bytes payload");
}

void Reader::bytes_into(const char* name, std::span<u8> out) {
  expect(FieldKind::kBytes, name);
  const u32 n = get32();
  if (n != out.size()) {
    fail("bytes field '" + std::string(name) + "' length " +
         std::to_string(n) + " != expected " + std::to_string(out.size()));
  }
  read_exact(out.data(), n, "bytes payload");
}

std::vector<DumpLine> dump(std::istream& is) {
  // The schema-free walk: every field carries its own kind and name, so
  // the only shared knowledge is the TLV layout, read by the same Reader
  // restore uses.
  Reader r(is);
  std::vector<DumpLine> lines;
  // Dotted path of the open groups ("machine.procs.proc[2]."), and the
  // length it had before each was opened.
  std::string prefix;
  std::vector<std::size_t> opened;
  // Sibling-name disambiguation: repeated names within one parent group
  // get a [i] suffix so dump keys are unique and diff can align on them.
  std::vector<std::map<std::string, u32>> seen(1);

  FieldKind kind{};
  std::string_view field;
  while (r.next_field(kind, field)) {
    if (kind == FieldKind::kGroupEnd) {
      if (opened.empty()) r.fail("unbalanced group end");
      prefix.resize(opened.back());
      opened.pop_back();
      seen.pop_back();
      continue;
    }

    std::string name(field);
    const u32 idx = seen.back()[name]++;
    if (idx > 0) name += "[" + std::to_string(idx) + "]";
    std::string key = prefix + name;

    switch (kind) {
      case FieldKind::kGroupBegin:
        opened.push_back(prefix.size());
        prefix = std::move(key) + ".";
        seen.emplace_back();
        break;
      case FieldKind::kU8:
        lines.push_back({std::move(key), std::to_string(r.get8())});
        break;
      case FieldKind::kU32:
        lines.push_back({std::move(key), std::to_string(r.get32())});
        break;
      case FieldKind::kU64:
        lines.push_back({std::move(key), hex64(r.get64())});
        break;
      case FieldKind::kBool:
        lines.push_back({std::move(key), r.get8() ? "true" : "false"});
        break;
      case FieldKind::kStr: {
        std::string s;
        r.get_str(s);
        lines.push_back({std::move(key), "\"" + s + "\""});
        break;
      }
      case FieldKind::kBytes: {
        std::vector<u8> v;
        r.get_bytes(v);
        std::string rendered;
        if (v.size() <= 32) {
          // Short payloads inline as hex so diffs show the actual bytes.
          char b[3];
          rendered = "hex:";
          for (const u8 c : v) {
            std::snprintf(b, sizeof b, "%02x", c);
            rendered += b;
          }
        } else {
          rendered = "bytes[" + std::to_string(v.size()) + "] sha256=" +
                     image::hex_digest(image::sha256(v)).substr(0, 16);
        }
        lines.push_back({std::move(key), std::move(rendered)});
        break;
      }
      default:
        r.fail("unknown field kind " + std::to_string(static_cast<u32>(kind)) +
               " at " + key);
    }
  }
  if (!opened.empty()) {
    r.fail("truncated stream: " + std::to_string(opened.size()) +
           " unclosed group(s)");
  }
  return lines;
}

std::vector<std::string> diff(std::istream& a, std::istream& b) {
  const std::vector<DumpLine> la = dump(a);
  const std::vector<DumpLine> lb = dump(b);
  std::map<std::string, std::string> ma, mb;
  std::vector<std::string> order;  // first-appearance order across both
  for (const DumpLine& l : la) {
    if (ma.emplace(l.key, l.value).second) order.push_back(l.key);
  }
  for (const DumpLine& l : lb) {
    if (mb.emplace(l.key, l.value).second && !ma.contains(l.key)) {
      order.push_back(l.key);
    }
  }
  std::vector<std::string> out;
  for (const std::string& key : order) {
    const auto ia = ma.find(key);
    const auto ib = mb.find(key);
    if (ia == ma.end()) {
      out.push_back("only in B: " + key + " = " + ib->second);
    } else if (ib == mb.end()) {
      out.push_back("only in A: " + key + " = " + ia->second);
    } else if (ia->second != ib->second) {
      out.push_back(key + ": " + ia->second + " != " + ib->second);
    }
  }
  return out;
}

}  // namespace sm::snapshot
