// Structured metrics snapshots: one JSON document per bench-driver run.
//
// Every stats struct in the system (CostTracker categories, DistStats,
// SchedulerStats, einsum/contraction counters, sweep records) tells part of
// the story in its own ad-hoc text format. MetricsRegistry collects them into
// one machine-readable document
//
//   { "schema": "tt-metrics-v1",
//     "driver": "<bench driver name>",
//     "context": { "<key>": <number|string>, ... },
//     "sections": [ { "name": "<row id>", "values": { ... } }, ... ] }
//
// emitted by the bench drivers via `--metrics <path>` and consumed by
// bench/trajectory_diff.py, which diffs per-category percentage breakdowns
// ("pct.<Category>" keys) between a fresh run and the committed trajectory
// snapshot. Section names are row identities — stable across runs of the
// same driver (e.g. "fig7a.m32.nodes16") — and `context` holds the run-wide
// configuration (backend, threads, ranks) that explains, but does not
// identify, the numbers.
//
// Layering: this lives in rt and may consume rt types directly; higher-layer
// records (dmrg::SweepRecord) are flattened by the caller through the generic
// add() API (see bench/common.hpp add_sweep_metrics).
#pragma once

#include <string>
#include <vector>

#include "runtime/tracker.hpp"

namespace tt::rt {

struct DistStats;
struct SchedulerStats;

/// One named metrics document; see file header for the JSON schema.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::string driver) : driver_(std::move(driver)) {}

  /// Run-wide configuration key (backend, threads, ranks, ...).
  void add_context(const std::string& key, double value);
  void add_context(const std::string& key, const std::string& value);

  /// One value in section `section` (created on first use, order preserved).
  void add(const std::string& section, const std::string& key, double value);
  void add(const std::string& section, const std::string& key,
           const std::string& value);

  /// Flatten a CostTracker: total_s, flops, words, supersteps, and per
  /// category `time_s.<name>` / `pct.<name>` (trajectory_diff.py reads the
  /// pct.* keys for breakdown drift detection).
  void add_tracker(const std::string& section, const CostTracker& t);

  /// Flatten measured distributed-run quantities (ranks, comm seconds and
  /// their checksum/syscall/wait split, root encode/decode and summed worker
  /// codec seconds, imbalance/recovery seconds, bytes, critical-path busy
  /// time).
  void add_dist(const std::string& section, const DistStats& d);

  /// Flatten scheduler self-healing counters.
  void add_scheduler(const std::string& section, const SchedulerStats& s);

  bool empty() const { return sections_.empty() && context_.empty(); }
  const std::string& driver() const { return driver_; }

  std::string to_json() const;

  /// Write to_json() to `path`; prints a one-line confirmation like the
  /// drivers' --csv handling. No-op when `path` is empty.
  void write(const std::string& path) const;

 private:
  struct Entry {
    std::string key;
    bool is_number = true;
    double num = 0.0;
    std::string str;
  };
  struct Section {
    std::string name;
    std::vector<Entry> entries;
  };

  Section& section(const std::string& name);

  std::string driver_;
  std::vector<Entry> context_;
  std::vector<Section> sections_;
};

}  // namespace tt::rt
