#include "runtime/metrics.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "runtime/scheduler.hpp"

namespace tt::rt {

namespace {

void append_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << ' ';
    else
      os << c;
  }
  os << '"';
}

void append_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // JSON has no inf/nan
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

}  // namespace

void MetricsRegistry::add_context(const std::string& key, double value) {
  Entry e;
  e.key = key;
  e.num = value;
  context_.push_back(std::move(e));
}

void MetricsRegistry::add_context(const std::string& key,
                                  const std::string& value) {
  Entry e;
  e.key = key;
  e.is_number = false;
  e.str = value;
  context_.push_back(std::move(e));
}

MetricsRegistry::Section& MetricsRegistry::section(const std::string& name) {
  for (Section& s : sections_)
    if (s.name == name) return s;
  sections_.push_back(Section{name, {}});
  return sections_.back();
}

void MetricsRegistry::add(const std::string& sec, const std::string& key,
                          double value) {
  Entry e;
  e.key = key;
  e.num = value;
  section(sec).entries.push_back(std::move(e));
}

void MetricsRegistry::add(const std::string& sec, const std::string& key,
                          const std::string& value) {
  Entry e;
  e.key = key;
  e.is_number = false;
  e.str = value;
  section(sec).entries.push_back(std::move(e));
}

void MetricsRegistry::add_tracker(const std::string& sec,
                                  const CostTracker& t) {
  add(sec, "total_s", t.total_time());
  add(sec, "flops", t.flops());
  add(sec, "words", t.words());
  add(sec, "supersteps", t.supersteps());
  const auto pct = t.percentages();
  for (int c = 0; c < kNumCategories; ++c) {
    const char* name = category_name(static_cast<Category>(c));
    add(sec, std::string("time_s.") + name,
        t.time(static_cast<Category>(c)));
    add(sec, std::string("pct.") + name, pct[static_cast<std::size_t>(c)]);
  }
}

void MetricsRegistry::add_dist(const std::string& sec, const DistStats& d) {
  add(sec, "ranks", static_cast<double>(d.ranks.size()));
  add(sec, "contractions", static_cast<double>(d.contractions));
  add(sec, "comm_s", d.comm_seconds);
  add(sec, "comm_checksum_s", d.checksum_seconds);
  add(sec, "comm_syscall_s", d.syscall_seconds);
  add(sec, "comm_wait_s", d.wait_seconds);
  add(sec, "encode_s", d.encode_seconds);
  add(sec, "decode_s", d.decode_seconds);
  double worker_codec = 0.0;
  for (const DistStats::Rank& r : d.ranks) worker_codec += r.codec_seconds;
  add(sec, "worker_codec_s", worker_codec);
  add(sec, "critical_busy_s", d.critical_busy_seconds);
  add(sec, "imbalance_s", d.imbalance_seconds);
  add(sec, "recovery_s", d.recovery_seconds);
  add(sec, "exchange_words", d.exchange_words);
  add(sec, "total_bytes", d.total_bytes());
  add(sec, "total_flops", d.total_flops());
}

void MetricsRegistry::add_scheduler(const std::string& sec,
                                    const SchedulerStats& s) {
  add(sec, "faults_detected", static_cast<double>(s.faults_detected));
  add(sec, "retries", static_cast<double>(s.retries));
  add(sec, "respawns", static_cast<double>(s.respawns));
  add(sec, "ranks_lost", static_cast<double>(s.ranks_lost));
  add(sec, "degraded", s.degraded ? 1.0 : 0.0);
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  auto entries = [&os](const std::vector<Entry>& es) {
    os << "{";
    for (std::size_t i = 0; i < es.size(); ++i) {
      if (i > 0) os << ", ";
      append_json_string(os, es[i].key);
      os << ": ";
      if (es[i].is_number)
        append_json_number(os, es[i].num);
      else
        append_json_string(os, es[i].str);
    }
    os << "}";
  };

  os << "{\n  \"schema\": \"tt-metrics-v1\",\n  \"driver\": ";
  append_json_string(os, driver_);
  os << ",\n  \"context\": ";
  entries(context_);
  os << ",\n  \"sections\": [";
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n    {\"name\": ";
    append_json_string(os, sections_[i].name);
    os << ", \"values\": ";
    entries(sections_[i].entries);
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

void MetricsRegistry::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "tt metrics: cannot open '" << path << "' for writing\n";
    return;
  }
  out << to_json();
  std::cout << "wrote metrics: " << path << "\n";
}

}  // namespace tt::rt
