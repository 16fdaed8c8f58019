// Dependency-aware traffic sources. A Workload generalizes TrafficPattern
// from per-packet destination draws to compiled per-rank send lists with
// BSP-style phase gating: every rank must finish sending its phase-p
// messages AND receive the phase-p packets addressed to it before any of
// its phase-p+1 traffic becomes eligible. The compiled form covers the
// MPI collectives the deployment studies drive (all-to-all, ring and
// recursive-doubling allreduce, 2D/3D stencil exchange) plus bursty
// ON/OFF, hotspot, and incast flows, and round-trips through a versioned
// JSONL trace (`polarfly-trace/1`) for deterministic capture/replay.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace pf::sim {

/// One compiled message: `packets` packets from the owning (rank, phase)
/// to `dst`, none injectable before absolute cycle `release`.
struct WorkloadMessage {
  int dst = 0;
  int packets = 1;
  std::int64_t release = 0;
};

/// Cap on what one compact spec may expand to before anything is
/// allocated: a compiled workload's (rank, phase) rows, and the events a
/// failure schedule's flaps expand to.
inline constexpr std::uint64_t kMaxExpansion = std::uint64_t{1} << 26;

/// An immutable compiled workload. Ranks are terminal indices; the
/// network asserts num_ranks() matches its terminal count.
class Workload {
 public:
  /// Compiles `spec` ("name" or "name:key=value,..."). Known names:
  /// alltoall, ring_allreduce, rd_allreduce, stencil2d, stencil3d,
  /// bursty, hotspot, incast, and trace:file=PATH (replay). `seed` feeds
  /// the randomized generators (bursty, hotspot); the rest ignore it.
  /// Throws std::invalid_argument naming the spec on unknown
  /// names/parameters, when a replayed trace's rank count does not match
  /// `ranks`, or when the compiled form would exceed the size caps:
  /// ranks * phases > 2^26, more than UINT32_MAX messages, or any (rank,
  /// phase) expecting more than INT32_MAX packets. The first two are
  /// checked before anything is allocated.
  static std::shared_ptr<const Workload> make(const std::string& spec,
                                              int ranks,
                                              std::uint64_t seed);

  /// Parses a polarfly-trace/1 JSONL document. Errors are prefixed
  /// "<context> line N: ..." and reject torn lines, unknown keys,
  /// out-of-range ranks, self-sends, and time-travel orderings.
  static std::shared_ptr<const Workload> from_trace(
      const std::string& text, const std::string& context);

  /// Canonical spec string (non-default parameters only); a replayed
  /// trace keeps the name recorded in its header, so record identities
  /// survive capture -> replay.
  const std::string& name() const { return name_; }

  int num_ranks() const { return ranks_; }
  int num_phases() const { return phases_; }

  /// Messages rank must send in `phase`, in injection order.
  std::span<const WorkloadMessage> sends(int rank, int phase) const {
    const std::size_t row = row_of(rank, phase);
    return {msgs_.data() + offsets_[row], msgs_.data() + offsets_[row + 1]};
  }

  /// Packets rank must receive before leaving `phase`.
  std::int32_t expected_recv(int rank, int phase) const {
    return expect_[row_of(rank, phase)];
  }

  /// Total packets across every rank and phase.
  std::int64_t total_packets() const { return total_packets_; }

  /// Serializes to polarfly-trace/1 JSONL: one header line, then one
  /// line per message in rank-major, phase-ascending, release-ascending
  /// order. from_trace(to_trace()) reproduces the workload exactly.
  std::string to_trace() const;

 private:
  Workload() = default;

  std::size_t row_of(int rank, int phase) const {
    return static_cast<std::size_t>(rank) * static_cast<std::size_t>(phases_) +
           static_cast<std::size_t>(phase);
  }

  /// Checks the row and message caps (std::invalid_argument naming
  /// `spec`), then sizes the tables for `messages` appends.
  void init(const std::string& spec, int ranks, int phases,
            std::uint64_t messages);
  /// Appends one message to row (rank, phase) and maintains the receive
  /// expectations. Rows must arrive in ascending (rank, phase) order
  /// (std::logic_error otherwise); std::overflow_error past the message
  /// or expectation cap.
  void add(int rank, int phase, int dst, int packets, std::int64_t release);
  /// Closes the rows after the last add().
  void finish();

  // CSR storage: every message lives contiguously in msgs_, in (rank,
  // phase)-major order, and row rank * phases + phase spans
  // [offsets_[row], offsets_[row + 1]). A message costs 16 bytes and a
  // (rank, phase) row 8 (its offset plus its receive expectation), so a
  // ring allreduce on PF q=13 (1281 ranks x 2560 phases) takes 79 MB.
  std::string name_;
  int ranks_ = 0;
  int phases_ = 0;
  std::vector<WorkloadMessage> msgs_;
  std::vector<std::uint32_t> offsets_;  ///< rows + 1 entries
  std::vector<std::int32_t> expect_;    ///< one per row
  std::size_t last_row_ = 0;            ///< row of the latest add()
  std::int64_t total_packets_ = 0;
};

/// True when the generator behind `spec` draws randomness from its seed
/// (bursty, hotspot) — the analogue of pattern_uses_seed for workloads.
bool workload_uses_seed(const std::string& spec);

}  // namespace pf::sim
