#include "asm/assembler.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <sstream>
#include <tuple>

#include "arch/isa.h"

namespace sm::assembler {

namespace {

enum class Section { kText, kData, kBss };

// Mnemonic -> opcode row, built once from the opcode table.
const std::map<std::string, const arch::OpInfo*>& mnemonics() {
  static const auto table = [] {
    std::map<std::string, const arch::OpInfo*> by_name;
    for (const arch::OpInfo& row : arch::kOpTable) {
      by_name.emplace(row.mnemonic, &row);
    }
    return by_name;
  }();
  return table;
}

std::string strip(const std::string& s) {
  auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  std::ranges::transform(s, s.begin(),
                         [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Splits on commas that are outside quotes/brackets.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  bool in_str = false;
  bool in_chr = false;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) {
        cur += s[++i];
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (in_chr) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) {
        cur += s[++i];
      } else if (c == '\'') {
        in_chr = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_str = true;
        cur += c;
        break;
      case '\'':
        in_chr = true;
        cur += c;
        break;
      case '[':
        ++depth;
        cur += c;
        break;
      case ']':
        --depth;
        cur += c;
        break;
      case ',':
        if (depth == 0) {
          out.push_back(strip(cur));
          cur.clear();
        } else {
          cur += c;
        }
        break;
      default:
        cur += c;
    }
  }
  const std::string last = strip(cur);
  if (!last.empty()) out.push_back(last);
  return out;
}

struct Line {
  int number;
  std::vector<std::string> labels;
  std::string mnemonic;  // lowercase, possibly a ".directive"
  std::vector<std::string> operands;
};

std::string strip_comment(const std::string& raw) {
  std::string out;
  bool in_str = false;
  bool in_chr = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    if (!in_str && !in_chr && (c == ';' || c == '#')) break;
    if (c == '"' && !in_chr) in_str = !in_str;
    if (c == '\'' && !in_str) in_chr = !in_chr;
    if (c == '\\' && (in_str || in_chr) && i + 1 < raw.size()) {
      out += c;
      out += raw[++i];
      continue;
    }
    out += c;
  }
  return out;
}

bool valid_ident(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  return std::ranges::all_of(s, [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '.';
  });
}

class Assembler {
 public:
  Assembler(const std::string& source, const Layout& layout)
      : layout_(layout) {
    parse(source);
  }

  Program run() {
    pass_sizes_and_labels();
    pass_emit();
    Program p;
    p.layout = layout_;
    p.text = std::move(text_);
    p.data = std::move(data_);
    p.bss_size = bss_size_;
    p.symbols = std::move(symbols_);
    return p;
  }

 private:
  [[noreturn]] void err(int line, const std::string& msg) const {
    throw AsmError(line, msg);
  }

  void parse(const std::string& source) {
    std::istringstream in(source);
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
      ++number;
      std::string s = strip(strip_comment(raw));
      Line line;
      line.number = number;
      // Peel off leading labels.
      while (true) {
        const auto colon = s.find(':');
        if (colon == std::string::npos) break;
        const std::string head = strip(s.substr(0, colon));
        if (!valid_ident(head)) break;
        // Don't treat "label:" inside an operand as a label; heads only.
        line.labels.push_back(head);
        s = strip(s.substr(colon + 1));
      }
      if (!s.empty()) {
        const auto sp = s.find_first_of(" \t");
        line.mnemonic = lower(sp == std::string::npos ? s : s.substr(0, sp));
        if (sp != std::string::npos) {
          line.operands = split_operands(strip(s.substr(sp + 1)));
        }
      }
      if (!line.labels.empty() || !line.mnemonic.empty()) {
        lines_.push_back(std::move(line));
      }
    }
  }

  // --- expression evaluation -------------------------------------------
  std::optional<u32> parse_number(const std::string& t) const {
    if (t.empty()) return std::nullopt;
    if (t.size() >= 3 && t.front() == '\'' && t.back() == '\'') {
      const std::string body = t.substr(1, t.size() - 2);
      if (body.size() == 1) return static_cast<u32>(body[0]);
      if (body.size() == 2 && body[0] == '\\') {
        switch (body[1]) {
          case 'n':
            return '\n';
          case 't':
            return '\t';
          case 'r':
            return '\r';
          case '0':
            return 0;
          case '\\':
            return '\\';
          case '\'':
            return '\'';
        }
      }
      return std::nullopt;
    }
    std::size_t pos = 0;
    bool neg = false;
    if (t[pos] == '-') {
      neg = true;
      ++pos;
    }
    if (pos >= t.size()) return std::nullopt;
    u32 value = 0;
    try {
      std::size_t used = 0;
      const std::string body = t.substr(pos);
      unsigned long long v = 0;
      if (body.size() > 2 && body[0] == '0' &&
          (body[1] == 'x' || body[1] == 'X')) {
        v = std::stoull(body.substr(2), &used, 16);
        used += 2;
      } else {
        if (!std::isdigit(static_cast<unsigned char>(body[0]))) {
          return std::nullopt;
        }
        v = std::stoull(body, &used, 10);
      }
      if (used != body.size()) return std::nullopt;
      value = static_cast<u32>(v);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    // Negated as u32: -0x80000000 has no i32 negation.
    return neg ? 0u - value : value;
  }

  u32 eval(int line, const std::string& expr0,
           bool labels_required = true) const {
    const std::string expr = strip(expr0);
    if (auto n = parse_number(expr)) return *n;
    // label, label+N, label-N (split at the LAST +/- not at position 0)
    for (std::size_t i = expr.size(); i-- > 1;) {
      if (expr[i] == '+' || expr[i] == '-') {
        const std::string base = strip(expr.substr(0, i));
        // '-' keeps its sign; '+' is dropped so parse_number sees digits.
        const std::string off =
            strip(expr[i] == '+' ? expr.substr(i + 1) : expr.substr(i));
        if (!valid_ident(base)) continue;
        const auto offv = parse_number(off);
        if (!offv) continue;
        return lookup(line, base, labels_required) + *offv;
      }
    }
    if (valid_ident(expr)) return lookup(line, expr, labels_required);
    err(line, "cannot parse expression '" + expr + "'");
  }

  u32 lookup(int line, const std::string& name, bool required) const {
    if (auto it = symbols_.find(name); it != symbols_.end()) {
      return it->second;
    }
    if (required) err(line, "undefined symbol '" + name + "'");
    return 0;
  }

  std::optional<u8> parse_reg(const std::string& t) const {
    const std::string s = lower(strip(t));
    if (s == "sp") return arch::kRegSp;
    if (s == "fp") return arch::kRegFp;
    if (s.size() == 2 && s[0] == 'r' && s[1] >= '0' && s[1] <= '7') {
      return static_cast<u8>(s[1] - '0');
    }
    return std::nullopt;
  }

  u8 need_reg(int line, const std::string& t) const {
    const auto r = parse_reg(t);
    if (!r) err(line, "expected register, got '" + t + "'");
    return *r;
  }

  // Parses "[rs]", "[rs+expr]", "[rs-expr]"; returns {reg, offset}.
  std::pair<u8, u32> parse_mem(int line, const std::string& t,
                               bool labels_required) const {
    const std::string s = strip(t);
    if (s.size() < 3 || s.front() != '[' || s.back() != ']') {
      err(line, "expected memory operand [reg+off], got '" + t + "'");
    }
    const std::string body = strip(s.substr(1, s.size() - 2));
    // Find the first +/- after the register name.
    std::size_t split = std::string::npos;
    for (std::size_t i = 1; i < body.size(); ++i) {
      if (body[i] == '+' || body[i] == '-') {
        split = i;
        break;
      }
    }
    if (split == std::string::npos) {
      return {need_reg(line, body), 0};
    }
    const u8 reg = need_reg(line, body.substr(0, split));
    std::string off = strip(body.substr(split));
    if (off[0] == '+') off = strip(off.substr(1));
    return {reg, eval(line, off, labels_required)};
  }

  std::vector<u8> parse_string(int line, const std::string& t) const {
    const std::string s = strip(t);
    if (s.size() < 2 || s.front() != '"' || s.back() != '"') {
      err(line, "expected string literal, got '" + t + "'");
    }
    std::vector<u8> out;
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
      char c = s[i];
      if (c == '\\' && i + 2 < s.size() + 1) {
        const char e = s[++i];
        switch (e) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case '0':
            c = '\0';
            break;
          case '\\':
            c = '\\';
            break;
          case '"':
            c = '"';
            break;
          case 'x': {
            if (i + 2 >= s.size()) err(line, "bad \\x escape");
            const std::string hex = s.substr(i + 1, 2);
            c = static_cast<char>(std::stoi(hex, nullptr, 16));
            i += 2;
            break;
          }
          default:
            err(line, std::string("unknown escape '\\") + e + "'");
        }
      }
      out.push_back(static_cast<u8>(c));
    }
    return out;
  }

  // --- the two passes ----------------------------------------------------
  // `emit` is false in pass 1 (sizes + labels), true in pass 2.
  u32 section_base(Section s) const {
    switch (s) {
      case Section::kText:
        return layout_.text_base;
      case Section::kData:
        return layout_.data_base;
      case Section::kBss:
        return layout_.bss_base;
    }
    return 0;
  }

  void process(bool emit) {
    Section section = Section::kText;
    u32 off[3] = {0, 0, 0};
    auto cur = [&]() -> u32& { return off[static_cast<int>(section)]; };

    // Bytes are emitted only in pass 2 and never in .bss, which has only
    // a size.
    auto out = [&]() -> std::vector<u8>* {
      if (!emit || section == Section::kBss) return nullptr;
      return section == Section::kText ? &text_ : &data_;
    };
    auto put8 = [&](u8 v) {
      if (auto* buf = out()) buf->push_back(v);
      cur() += 1;
    };
    auto put32 = [&](u32 v) {
      for (int i = 0; i < 4; ++i) put8(static_cast<u8>(v >> (8 * i)));
    };

    for (const Line& line : lines_) {
      const int ln = line.number;
      if (!emit) {
        for (const std::string& label : line.labels) {
          if (symbols_.contains(label)) {
            err(ln, "duplicate label '" + label + "'");
          }
          symbols_[label] = section_base(section) + cur();
        }
      }
      if (line.mnemonic.empty()) continue;
      const std::string& m = line.mnemonic;

      if (m[0] == '.') {
        if (m == ".text") {
          section = Section::kText;
        } else if (m == ".data") {
          section = Section::kData;
        } else if (m == ".bss") {
          section = Section::kBss;
        } else if (m == ".global") {
          // accepted for familiarity; all labels are already exported
        } else if (m == ".byte") {
          for (const auto& opnd : line.operands) {
            put8(static_cast<u8>(eval(ln, opnd, emit)));
          }
        } else if (m == ".word") {
          for (const auto& opnd : line.operands) {
            put32(eval(ln, opnd, emit));
          }
        } else if (m == ".ascii" || m == ".asciz") {
          if (line.operands.size() != 1) err(ln, m + " needs one string");
          for (u8 b : parse_string(ln, line.operands[0])) put8(b);
          if (m == ".asciz") put8(0);
        } else if (m == ".space") {
          if (line.operands.empty() || line.operands.size() > 2) {
            err(ln, ".space needs size[, fill]");
          }
          const u32 n = eval(ln, line.operands[0], emit);
          const u8 fill = line.operands.size() == 2
                              ? static_cast<u8>(eval(ln, line.operands[1], emit))
                              : 0;
          if (section == Section::kBss && fill != 0) {
            err(ln, ".space fill must be zero in .bss");
          }
          if (n > ~u32{0} - cur()) err(ln, ".space overflows the section");
          if (auto* buf = out()) buf->insert(buf->end(), n, fill);
          cur() += n;
        } else if (m == ".align") {
          if (line.operands.size() != 1) err(ln, ".align needs one operand");
          const u32 a = eval(ln, line.operands[0], emit);
          if (a == 0 || (a & (a - 1)) != 0) {
            err(ln, ".align must be a power of two");
          }
          // The pad is computed once, so `.align 4096` costs one insert.
          const u32 pad = (a - cur() % a) % a;
          if (auto* buf = out()) buf->insert(buf->end(), pad, 0);
          cur() += pad;
        } else if (m == ".equ") {
          if (line.operands.size() != 2) err(ln, ".equ needs name, value");
          if (!emit) {
            const std::string name = strip(line.operands[0]);
            if (!valid_ident(name)) err(ln, "bad .equ name");
            if (symbols_.contains(name)) {
              err(ln, "duplicate symbol '" + name + "'");
            }
            symbols_[name] = eval(ln, line.operands[1], /*required=*/true);
          }
        } else {
          err(ln, "unknown directive '" + m + "'");
        }
        continue;
      }

      if (section == Section::kBss) err(ln, "instructions not allowed in .bss");
      const auto it = mnemonics().find(m);
      if (it == mnemonics().end()) err(ln, "unknown mnemonic '" + m + "'");
      const arch::OpInfo& row = *it->second;
      const auto& ops = line.operands;
      auto need_ops = [&](std::size_t n) {
        if (ops.size() != n) {
          err(ln, m + " expects " + std::to_string(n) + " operand(s)");
        }
      };

      u8 ra = 0;
      u8 rb = 0;
      u32 imm = 0;
      switch (row.form) {
        case arch::Form::kNone:
          need_ops(0);
          break;
        case arch::Form::kReg:
          need_ops(1);
          ra = need_reg(ln, ops[0]);
          break;
        case arch::Form::kRegReg:
          need_ops(2);
          ra = need_reg(ln, ops[0]);
          rb = need_reg(ln, ops[1]);
          break;
        case arch::Form::kImm:
          need_ops(1);
          imm = eval(ln, ops[0], emit);
          break;
        case arch::Form::kRegImm:
          need_ops(2);
          ra = need_reg(ln, ops[0]);
          imm = eval(ln, ops[1], emit);
          break;
        case arch::Form::kLoad:
          need_ops(2);
          ra = need_reg(ln, ops[0]);
          std::tie(rb, imm) = parse_mem(ln, ops[1], emit);
          break;
        case arch::Form::kStore:
          need_ops(2);
          std::tie(ra, imm) = parse_mem(ln, ops[0], emit);
          rb = need_reg(ln, ops[1]);
          break;
      }
      if (auto* buf = out()) arch::encode(row.op, ra, rb, imm, *buf);
      cur() += arch::form_length(row.form);
    }
    if (!emit) bss_size_ = off[static_cast<int>(Section::kBss)];
  }

  void pass_sizes_and_labels() { process(/*emit=*/false); }
  void pass_emit() { process(/*emit=*/true); }

  Layout layout_;
  std::vector<Line> lines_;
  std::map<std::string, u32> symbols_;
  std::vector<u8> text_;
  std::vector<u8> data_;
  u32 bss_size_ = 0;
};

}  // namespace

u32 Program::symbol(const std::string& name) const {
  const auto it = symbols.find(name);
  if (it == symbols.end()) {
    throw std::out_of_range("no such symbol: " + name);
  }
  return it->second;
}

Program assemble(const std::string& source, const Layout& layout) {
  return Assembler(source, layout).run();
}

}  // namespace sm::assembler
