// Shared pieces of the repository benchmark: options, operation accounting,
// latency statistics, metric output, per-layer totals and the seeded inputs
// every workload draws from.
#pragma once

#include "gen/generator.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ompdart::verify {
struct OracleVerdict;
} // namespace ompdart::verify

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The built ompdart_cli, run as a child process by the deep-nesting leg.
  std::string cliPath;
};

/// Attempted and failed operations of one run. A failed operation never
/// aborts the run; it is listed by name with the reason of its first
/// failure.
class OpLedger {
public:
  void pass() { ++attempted_; }
  void fail(const std::string &name, const std::string &reason);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Prints one "failed: <name> x<count>: <reason>" line per failed name.
  void printFailures(const std::string &workload) const;

private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<unsigned, std::string>> failures_;
};

/// Linear-interpolated quantile of unsorted samples (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// Metrics of one run, printed in insertion order with their units.
class Metrics {
public:
  void add(const std::string &name, double value, const std::string &unit);
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>> &
  entries() const {
    return entries_;
  }

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Per-layer seconds and counts that a workload's traced rounds collect
/// from their own operations, summed over those rounds.
struct LayerTotals {
  std::map<std::string, double> sums;
  unsigned rounds = 0;
  void add(const std::string &name, double amount) { sums[name] += amount; }
  void merge(const LayerTotals &other);
  /// Mean of `name` per traced round.
  [[nodiscard]] double perRound(const std::string &name) const;
};

/// Timed operations of one round.
struct RoundTiming {
  double seconds = 0.0;            ///< wall time of the timed operations
  std::vector<double> latenciesMs; ///< one per timed operation
};

/// End-to-end figures of one workload run, common to every workload.
/// Throughput and latency quantiles are taken per round and reported as
/// the median over rounds, so a burst of interference on a shared machine
/// moves one round, not the figure.
struct EndToEnd {
  double setupSeconds = 0.0;
  std::vector<RoundTiming> rounds;
  [[nodiscard]] double opsPerSecond() const;
  [[nodiscard]] double latencyQuantileMs(double q) const;
  std::uint64_t planBytes = 0;     ///< host<->device bytes under the plans
  std::uint64_t planCalls = 0;     ///< transfer calls under the plans
  /// High-water resident set after set-up and a fixed number of rounds
  /// per workload, MiB. Read there, not at the end, because a daemon's
  /// memory grows with the cold work it serves, which a time-bounded run
  /// would tie to its speed.
  double peakRssMib = 0.0;
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// The generator shapes the workloads use: the generator's default mix,
/// and a larger one of exactly 20 segments over 6 arrays (~4 KB of C).
[[nodiscard]] ompdart::gen::GenOptions defaultShape();
[[nodiscard]] ompdart::gen::GenOptions largeShape();

/// One generated program picked for a workload.
struct PoolProgram {
  bool large = false;
  std::uint64_t genSeed = 0;
  [[nodiscard]] ompdart::gen::GeneratedProgram generate() const;
  /// "gen-default-001234" / "gen-large-000014".
  [[nodiscard]] std::string label() const;
};

/// Generated programs the differential oracle rejects inside the scanned
/// seed pools (default shape: seeds [0, kDefaultPool), large shape: seeds
/// [0, kLargePool)), plus the two large-shape seeds first reported outside
/// the pool. Every one of them fails every time, so `cold_batch` runs all
/// of them in every round; the seeded draws below never pick them.
[[nodiscard]] const std::vector<PoolProgram> &knownOracleFailures();

inline constexpr std::uint64_t kDefaultPool = 5000;
inline constexpr std::uint64_t kLargePool = 1000;

/// Draws `defaults` default-shape and `larges` large-shape programs,
/// distinct, from the scanned pools minus the known failures, seeded by the
/// benchmark seed and a per-workload salt.
[[nodiscard]] std::vector<PoolProgram>
drawPool(std::uint64_t seed, std::uint64_t salt, unsigned defaults,
         unsigned larges);

/// 64-bit FNV-1a, used to keep compact digests of long replies.
[[nodiscard]] std::uint64_t fnv1a(const std::string &text);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peakRssMib();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Runs one workload: set-up (repeated, median reported), the timed loop
/// for `seconds` in whole rounds (never fewer than the workload's fixed
/// minimum), then the correctness checks. A non-null `layers` makes the
/// rounds traced: each collects its per-layer figures into it.
using WorkloadFn = bool (*)(const Options &options, LayerTotals *layers,
                            double seconds, OpLedger &ops, EndToEnd &e2e);

bool runColdBatch(const Options &options, LayerTotals *layers, double seconds,
                  OpLedger &ops, EndToEnd &e2e);
bool runServe(const Options &options, LayerTotals *layers, double seconds,
              OpLedger &ops, EndToEnd &e2e);

/// Per-layer metrics of the traced run. The cold_batch and serve ones take
/// what that workload's traced rounds collected (`layers`) and add replays
/// of the module calls the workload makes only inside other calls; the
/// evaluation layers replay the paper suite and a seeded oracle corpus.
bool traceColdBatchLayers(const Options &options, const LayerTotals &layers,
                          Metrics &out);
bool traceEvaluateLayers(const Options &options, Metrics &out);
bool traceServeLayers(const Options &options, const LayerTotals &layers,
                      Metrics &out);

/// The oracle check of a generated program: empty when every invariant
/// holds, else the first violated invariant.
[[nodiscard]] std::string
oracleFailure(const ompdart::verify::OracleVerdict &verdict);

/// Proofs that the correctness checks can fail: each feeds a deliberately
/// broken output through the check a workload uses and returns true only
/// when the check rejects it.
bool selfCheckDroppedFromLeg();
bool selfCheckAlteredReply();

/// Removes the private cache directory the serve workload made, if any.
void removeCacheRoot();

} // namespace perfbench
