// Sweep-level checkpoint/restart for DMRG runs (ROADMAP item 5a).
//
// A CheckpointManager owns a directory holding numbered snapshots plus one
// MANIFEST naming the latest complete snapshot:
//
//   MANIFEST            "TTCKPT-MANIFEST 2\n<seq> <file> <checksum> <bytes>\n"
//   ckpt_<seq>.tt       "TTCKPT 1" header, sweep position, energy history,
//                       then the full MPS as an embedded TTMPS-v1 stream
//                       (hexfloat doubles — bitwise-exact round trip)
//
// Durability discipline: every file is written to a temporary name in the
// same directory and then rename()d into place — a crash mid-write can leave
// a stale temp file, never a torn snapshot or a manifest naming one. The
// manifest is updated only after its snapshot is durable, and carries the
// snapshot's byte count and rt::wire_checksum so load() rejects truncation
// and corruption explicitly. The two most recent snapshots are kept (the
// previous one survives until the next save), older ones are pruned.
//
// Restart contract: Dmrg::resume() loads the latest snapshot, restores the
// MPS (bitwise), rebuilds every environment through EnvGraph, and continues
// from the stored mid-sweep position. Because sweeps, SVD, and Davidson are
// deterministic and environment production is bit-equivalent across rebuild
// and incremental maintenance, the resumed run reaches a final energy
// bitwise identical to an uninterrupted run — asserted by
// tests/dmrg/test_checkpoint.cpp.
#pragma once

#include <string>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "mps/io.hpp"

namespace tt::dmrg {

/// Where a run stands inside its sweep schedule; everything Dmrg::resume()
/// needs beyond the MPS itself.
struct SweepPosition {
  int schedule_pos = 0;  ///< index of the interrupted sweep in the schedule
  int sweep_count = 0;   ///< sweeps completed before it
  int phase = 0;         ///< 0 = left-to-right pass, 1 = right-to-left pass
  int next_bond = 0;     ///< first bond the resumed sweep optimizes
  int center = 0;        ///< orthogonality center of the stored MPS
  real_t energy = 0.0;           ///< last Davidson eigenvalue
  real_t trunc_err = 0.0;        ///< last bond truncation error
  real_t max_trunc_partial = 0.0;  ///< running max over the interrupted sweep
};

/// A loaded snapshot.
struct CheckpointData {
  mps::Mps psi;
  SweepPosition pos;
  std::vector<SweepRecord> history;  ///< sweep/energy/bond-dim/trunc only
};

/// Atomic write-to-temp-then-rename snapshot store (see file header).
class CheckpointManager {
 public:
  /// Creates `dir` if needed. If the directory already holds a manifest, the
  /// sequence continues from it (and a corrupt manifest throws here, not at
  /// the first save over it).
  explicit CheckpointManager(std::string dir);

  const std::string& dir() const { return dir_; }
  bool has_checkpoint() const;
  long sequence() const { return sequence_; }

  /// Write snapshot sequence()+1 and point the manifest at it.
  void save(const mps::Mps& psi, const SweepPosition& pos,
            const std::vector<SweepRecord>& history);

  /// Load the snapshot the manifest names. Throws tt::Error on missing
  /// manifest, bad magic, unsupported version, truncation, or checksum
  /// mismatch — never returns garbage.
  CheckpointData load(mps::SiteSetPtr sites) const;

 private:
  std::string manifest_path() const;
  std::string snapshot_name(long seq) const;

  std::string dir_;
  long sequence_ = 0;
};

}  // namespace tt::dmrg
