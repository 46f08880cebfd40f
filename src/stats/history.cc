#include "src/stats/history.h"

#include <charconv>
#include <cstdio>

namespace camelot {
namespace {

constexpr std::string_view kHeader = "# camelot-history v1";

std::string HexEncode(const Bytes& b) {
  if (b.empty()) {
    return "-";
  }
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

Result<Bytes> HexDecode(std::string_view s) {
  Bytes out;
  if (s == "-") {
    return out;
  }
  if (s.size() % 2 != 0) {
    return InvalidArgumentError("odd-length hex value");
  }
  out.reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    const int hi = HexNibble(s[i]);
    const int lo = HexNibble(s[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("bad hex digit in value");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

// Tids serialize as origin:sequence:serial — parent_serial is omitted because
// only top-level ops reach the recorder today, and "-" stands for kInvalidTid.
std::string TidToken(const Tid& tid) {
  if (!tid.IsValid()) {
    return "-";
  }
  return std::to_string(tid.family.origin.value) + ":" +
         std::to_string(tid.family.sequence) + ":" + std::to_string(tid.serial);
}

bool ParseU64(std::string_view s, uint64_t* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

Result<Tid> ParseTidToken(std::string_view s) {
  if (s == "-") {
    return kInvalidTid;
  }
  const size_t c1 = s.find(':');
  const size_t c2 = s.find(':', c1 == std::string_view::npos ? c1 : c1 + 1);
  uint64_t origin = 0, sequence = 0, serial = 0;
  if (c1 == std::string_view::npos || c2 == std::string_view::npos ||
      !ParseU64(s.substr(0, c1), &origin) ||
      !ParseU64(s.substr(c1 + 1, c2 - c1 - 1), &sequence) ||
      !ParseU64(s.substr(c2 + 1), &serial)) {
    return InvalidArgumentError("bad tid token");
  }
  Tid tid;
  tid.family.origin = SiteId{static_cast<uint32_t>(origin)};
  tid.family.sequence = sequence;
  tid.serial = static_cast<uint32_t>(serial);
  return tid;
}

Result<HistoryOp> ParseOpToken(std::string_view s) {
  for (HistoryOp op : {HistoryOp::kInit, HistoryOp::kRead, HistoryOp::kWrite,
                       HistoryOp::kCommit, HistoryOp::kAbort}) {
    if (s == HistoryOpName(op)) {
      return op;
    }
  }
  return InvalidArgumentError("unknown history op");
}

// NB: both arms must already be string_views — a `? "-" : s` ternary would
// materialize a temporary std::string and return a dangling view of it.
std::string_view FieldOrDash(const std::string& s) {
  return s.empty() ? std::string_view("-") : std::string_view(s);
}

}  // namespace

const char* HistoryOpName(HistoryOp op) {
  switch (op) {
    case HistoryOp::kInit:
      return "init";
    case HistoryOp::kRead:
      return "read";
    case HistoryOp::kWrite:
      return "write";
    case HistoryOp::kCommit:
      return "commit";
    case HistoryOp::kAbort:
      return "abort";
  }
  return "?";
}

std::string HistoryEvent::ToLine() const {
  std::string line = std::to_string(ts);
  line += ' ';
  line += HistoryOpName(op);
  line += ' ';
  line += TidToken(tid);
  line += ' ';
  line += std::to_string(site.value);
  line += ' ';
  line += FieldOrDash(server);
  line += ' ';
  line += FieldOrDash(object);
  line += ' ';
  line += HexEncode(value);
  return line;
}

std::string HistoryRecorder::Serialize() const {
  std::string out(kHeader);
  out += '\n';
  for (const HistoryEvent& e : events_) {
    out += e.ToLine();
    out += '\n';
  }
  return out;
}

Result<std::vector<HistoryEvent>> HistoryRecorder::Parse(std::string_view text) {
  std::vector<HistoryEvent> out;
  size_t line_no = 0;
  bool saw_header = false;
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      if (line_no == 1 && line != kHeader) {
        return InvalidArgumentError("not a camelot-history v1 file");
      }
      saw_header = saw_header || line == kHeader;
      continue;
    }
    if (!saw_header) {
      return InvalidArgumentError("missing camelot-history header");
    }
    // Split into exactly 7 whitespace-separated tokens.
    std::string_view tok[7];
    size_t n_tok = 0;
    size_t pos = 0;
    while (pos < line.size() && n_tok < 7) {
      while (pos < line.size() && line[pos] == ' ') {
        ++pos;
      }
      const size_t start = pos;
      while (pos < line.size() && line[pos] != ' ') {
        ++pos;
      }
      if (pos > start) {
        tok[n_tok++] = line.substr(start, pos - start);
      }
    }
    const auto bad = [&](const std::string& what) {
      return InvalidArgumentError("history line " + std::to_string(line_no) + ": " + what);
    };
    if (n_tok != 7 || pos != line.size()) {
      return bad("expected 7 fields");
    }
    HistoryEvent e;
    uint64_t ts = 0, site = 0;
    if (!ParseU64(tok[0], &ts)) {
      return bad("bad timestamp");
    }
    e.ts = static_cast<SimTime>(ts);
    auto op = ParseOpToken(tok[1]);
    if (!op.ok()) {
      return bad(op.status().message());
    }
    e.op = *op;
    auto tid = ParseTidToken(tok[2]);
    if (!tid.ok()) {
      return bad(tid.status().message());
    }
    e.tid = *tid;
    if (!ParseU64(tok[3], &site)) {
      return bad("bad site");
    }
    e.site = SiteId{static_cast<uint32_t>(site)};
    e.server = tok[4] == "-" ? std::string() : std::string(tok[4]);
    e.object = tok[5] == "-" ? std::string() : std::string(tok[5]);
    auto value = HexDecode(tok[6]);
    if (!value.ok()) {
      return bad(value.status().message());
    }
    e.value = std::move(*value);
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace camelot
