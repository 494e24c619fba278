// Repository benchmark driver.
//
//   perfbench --workload cold_batch|serve --seed N --seconds S
//             --trace 0|1 --cli <ompdart_cli>
//   perfbench --scan-pools
//
// Runs one workload in the current directory (which receives its scratch
// files), checks every output, and prints as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics. Traced runs report the per-layer metrics: those the
// workloads' own operations give come from traced rounds of each workload,
// the rest from replays of single module calls on the same inputs. They
// also report what tracing cost the run's own workload.
#include "common.hpp"

#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace {

using namespace perfbench;

struct Workload {
  const char *name;
  WorkloadFn run;
};

const Workload kWorkloads[] = {
    {"cold_batch", runColdBatch},
    {"serve", runServe},
};

void addEndToEnd(const EndToEnd &e2e, Metrics &out) {
  out.add("setup_s", e2e.setupSeconds, "s");
  out.add("peak_rss_mib", e2e.peakRssMib, "MiB");
  out.add("ops_per_s", e2e.opsPerSecond(), "1/s");
  out.add("op_p50_ms", e2e.latencyQuantileMs(0.5), "ms");
  out.add("op_p90_ms", e2e.latencyQuantileMs(0.9), "ms");
  out.add("plan_bytes", static_cast<double>(e2e.planBytes), "bytes");
  out.add("plan_transfer_calls", static_cast<double>(e2e.planCalls),
          "count");
}

/// Traced minus untraced, as a percentage of the untraced figure (positive
/// means tracing made the figure worse).
void addOverhead(const EndToEnd &plain, const EndToEnd &traced,
                 Metrics &out) {
  out.add("trace.overhead_ops_per_s_pct",
          (plain.opsPerSecond() - traced.opsPerSecond()) /
              plain.opsPerSecond() * 100.0,
          "%");
  for (const double q : {0.5, 0.9}) {
    const double base = plain.latencyQuantileMs(q);
    out.add(q == 0.5 ? "trace.overhead_op_p50_ms_pct"
                     : "trace.overhead_op_p90_ms_pct",
            (traced.latencyQuantileMs(q) - base) / base * 100.0, "%");
  }
}

int scanPools() {
  ompdart::verify::OracleOptions options;
  options.checkRewrite = true;
  unsigned failures = 0;
  for (const bool large : {false, true}) {
    const std::uint64_t pool = large ? kLargePool : kDefaultPool;
    for (std::uint64_t genSeed = 0; genSeed < pool; ++genSeed) {
      const PoolProgram pick{large, genSeed};
      const auto verdict =
          ompdart::verify::runOracle(pick.generate(), options);
      if (verdict.ok)
        continue;
      ++failures;
      std::string reason = verdict.divergence();
      reason.resize(std::min(reason.size(), reason.find('\n')));
      std::printf("%s: %s\n", pick.label().c_str(), reason.c_str());
    }
  }
  std::printf("%u failing programs\n", failures);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_batch|serve "
               "--seed N --seconds S --trace 0|1 --cli PATH\n"
               "       perfbench --scan-pools\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scan-pools")
      return scanPools();
    if (i + 1 >= argc)
      return usage();
    const std::string value = argv[++i];
    if (arg == "--workload")
      options.workload = value;
    else if (arg == "--seed")
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds")
      options.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace")
      options.trace = value == "1";
    else if (arg == "--cli")
      options.cliPath = value;
    else
      return usage();
  }
  const Workload *workload = nullptr;
  for (const Workload &candidate : kWorkloads)
    if (options.workload == candidate.name)
      workload = &candidate;
  if (workload == nullptr || options.seconds <= 0.0 || options.cliPath.empty())
    return usage();

  bool correct = true;
  const bool droppedFromLeg = selfCheckDroppedFromLeg();
  const bool alteredReply = selfCheckAlteredReply();
  std::printf("self-check: dropped from-leg fails its operation: %s\n",
              droppedFromLeg ? "yes" : "NO");
  std::printf("self-check: serve reply altered by one byte fails: %s\n",
              alteredReply ? "yes" : "NO");
  correct = droppedFromLeg && alteredReply;

  OpLedger ops;
  Metrics metrics;
  if (!options.trace) {
    EndToEnd e2e;
    correct = workload->run(options, nullptr, options.seconds, ops, e2e) &&
              correct;
    addEndToEnd(e2e, metrics);
  } else {
    // The run's own workload runs untraced, then traced, half the run each;
    // its per-layer figures are those of the traced half, so the overhead
    // reported is that of the measurement reported. Every other workload
    // runs traced for its minimum of rounds, its operations kept out of
    // this run's counts, to give its own per-layer figures.
    EndToEnd plain, traced;
    std::map<std::string, LayerTotals> layers;
    correct = workload->run(options, nullptr, options.seconds / 2, ops,
                            plain) &&
              correct;
    for (const Workload &candidate : kWorkloads) {
      LayerTotals &collected = layers[candidate.name];
      if (&candidate == workload) {
        correct = candidate.run(options, &collected, options.seconds / 2, ops,
                                traced) &&
                  correct;
      } else {
        OpLedger otherOps;
        EndToEnd otherEndToEnd;
        correct = candidate.run(options, &collected, 0.0, otherOps,
                                otherEndToEnd) &&
                  correct;
      }
    }
    correct = traceColdBatchLayers(options, layers["cold_batch"], metrics) &&
              correct;
    correct = traceEvaluateLayers(options, metrics) && correct;
    correct = traceServeLayers(options, layers["serve"], metrics) && correct;
    addOverhead(plain, traced, metrics);
  }

  ops.printFailures(options.workload);
  for (const auto &[name, value] : metrics.entries())
    std::printf("  %-36s %.6g %s\n", name.c_str(), value.first,
                value.second.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted());
  json += ", \"failed\": " + std::to_string(ops.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto &[name, value] : metrics.entries()) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value.first);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + value.second + "\"}";
    first = false;
  }
  json += "}}";
  removeCacheRoot();
  std::printf("%s\n", json.c_str());
  return 0;
}
