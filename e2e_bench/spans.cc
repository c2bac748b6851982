#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace e2e {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

int SpanLog::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::string SpanLog::SelfTimeTable() const {
  struct Row {
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  // A child's interval lies inside its parent's, and siblings do not
  // overlap, so a parent's covered time is the sum of its children's.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.dur_s;
  }
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total_s += spans_[i].dur_s;
    r.self_s += std::max(0.0, spans_[i].dur_s - covered[i]);
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-24s %8s %12s %12s\n", "span",
                "count", "total_ms", "self_ms");
  out += line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "  %-24s %8zu %12.3f %12.3f\n",
                  name.c_str(), r.count, r.total_s * 1e3, r.self_s * 1e3);
    out += line;
  }
  return out;
}

std::string SpanLog::ToChromeJson(const std::string& title) const {
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = spans_[0].start_s;
    for (const Span& s : spans_) origin = std::min(origin, s.start_s);
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"stmt\":\"",
                  JsonEscape(s.name).c_str(), (s.start_s - origin) * 1e6,
                  std::max(0.0, s.dur_s) * 1e6, std::max(1, s.lane));
    out += buf;
    out += JsonEscape(s.stmt);
    out += "\"}}";
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"title\":\"";
  out += JsonEscape(title);
  out += "\"}}";
  return out;
}

}  // namespace e2e
