#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

void OpLedger::fail(const std::string &name, const std::string &reason) {
  ++attempted_;
  ++failed_;
  auto &slot = failures_[name];
  if (slot.first++ == 0)
    slot.second = reason;
}

void OpLedger::printFailures(const std::string &workload) const {
  std::printf("%s: attempted %llu, failed %llu\n", workload.c_str(),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const auto &[name, slot] : failures_) {
    std::string reason = slot.second;
    const std::size_t newline = reason.find('\n');
    if (newline != std::string::npos)
      reason.resize(newline);
    std::printf("  failed: %s x%u: %s\n", name.c_str(), slot.first,
                reason.c_str());
  }
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty())
    return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, samples.size() - 1);
  const double weight = position - static_cast<double>(below);
  return samples[below] * (1.0 - weight) + samples[above] * weight;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double EndToEnd::opsPerSecond() const {
  std::vector<double> rates;
  for (const RoundTiming &round : rounds)
    rates.push_back(static_cast<double>(round.latenciesMs.size()) /
                    round.seconds);
  return median(rates);
}

double EndToEnd::latencyQuantileMs(double q) const {
  std::vector<double> perRound;
  for (const RoundTiming &round : rounds)
    perRound.push_back(quantile(round.latenciesMs, q));
  return median(perRound);
}

void Metrics::add(const std::string &name, double value,
                  const std::string &unit) {
  entries_.push_back({name, {value, unit}});
}

void LayerTotals::merge(const LayerTotals &other) {
  for (const auto &[name, amount] : other.sums)
    sums[name] += amount;
  rounds += other.rounds;
}

double LayerTotals::perRound(const std::string &name) const {
  const auto it = sums.find(name);
  return it == sums.end() || rounds == 0 ? 0.0 : it->second / rounds;
}

ompdart::gen::GenOptions defaultShape() { return {}; }

ompdart::gen::GenOptions largeShape() {
  ompdart::gen::GenOptions options;
  options.minArrays = options.maxArrays = 6;
  options.minSegments = options.maxSegments = 20;
  return options;
}

ompdart::gen::GeneratedProgram PoolProgram::generate() const {
  return ompdart::gen::generateProgram(genSeed,
                                       large ? largeShape() : defaultShape());
}

std::string PoolProgram::label() const {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "gen-%s-%06llu",
                large ? "large" : "default",
                static_cast<unsigned long long>(genSeed));
  return buffer;
}

const std::vector<PoolProgram> &knownOracleFailures() {
  // Found by `perfbench --scan-pools`; a change that fixes the planner
  // fault behind them updates this list from a fresh scan.
  static const std::vector<PoolProgram> failures = {
      {false, 1813}, {false, 3519}, {false, 4487}, {true, 14},
      {true, 34},    {true, 362},   {true, 479},   {true, 935},
      {true, 976},   {true, 5080},  {true, 10559},
  };
  return failures;
}

std::vector<PoolProgram> drawPool(std::uint64_t seed, std::uint64_t salt,
                                  unsigned defaults, unsigned larges) {
  std::set<std::pair<bool, std::uint64_t>> taken;
  for (const PoolProgram &known : knownOracleFailures())
    taken.insert({known.large, known.genSeed});
  ompdart::gen::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + salt);
  std::vector<PoolProgram> picked;
  const auto draw = [&](bool large, unsigned count, std::uint64_t pool) {
    for (unsigned drawn = 0; drawn < count;) {
      const std::uint64_t genSeed = rng.next() % pool;
      if (!taken.insert({large, genSeed}).second)
        continue;
      picked.push_back({large, genSeed});
      ++drawn;
    }
  };
  draw(false, defaults, kDefaultPool);
  draw(true, larges, kLargePool);
  return picked;
}

std::uint64_t fnv1a(const std::string &text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double peakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
