// Per-layer replays of the paper's §V evaluation: the interpreter on all
// three variants of the nine paper benchmarks, the simulated runtime's
// ledgers of the OMPDart variant, and the differential oracle over a seeded
// corpus of both generator shapes plus every known oracle failure. Also the
// self-check that the oracle's check fails a plan with a dropped from-leg.
#include "common.hpp"

#include "check/mutate.hpp"
#include "frontend/parser.hpp"
#include "interp/interp.hpp"
#include "mapping/backend.hpp"
#include "suite/benchmarks.hpp"
#include "verify/oracle.hpp"

namespace perfbench {
namespace {

constexpr unsigned kDefaultPrograms = 500;
constexpr unsigned kLargePrograms = 120;

struct CorpusEntry {
  std::string label;
  ompdart::gen::GeneratedProgram program;
};

std::vector<CorpusEntry> makeCorpus(std::uint64_t seed) {
  std::vector<PoolProgram> picks =
      drawPool(seed, /*salt=*/2, kDefaultPrograms, kLargePrograms);
  for (const PoolProgram &known : knownOracleFailures())
    picks.push_back(known);
  std::vector<CorpusEntry> corpus;
  for (const PoolProgram &pick : picks)
    corpus.push_back({pick.label(), pick.generate()});
  return corpus;
}

} // namespace

std::string oracleFailure(const ompdart::verify::OracleVerdict &verdict) {
  return verdict.ok ? "" : verdict.divergence();
}

bool traceEvaluateLayers(const Options &options, Metrics &out) {
  using ompdart::interp::Interpreter;
  double interpSeconds[3] = {0.0, 0.0, 0.0};
  double regions = 0.0, mapItems = 0.0, updateItems = 0.0;
  const auto countIr = [&](const ompdart::ir::MappingIr &ir) {
    regions += static_cast<double>(ir.regions.size());
    for (const auto &region : ir.regions) {
      mapItems += static_cast<double>(region.maps.size());
      updateItems += static_cast<double>(region.updates.size());
    }
  };
  std::uint64_t htod = 0, dtoh = 0, callsHtoD = 0, callsDtoH = 0,
                launches = 0;
  Metrics perBenchmark;
  for (const auto &def : ompdart::suite::allBenchmarks()) {
    // Unoptimized and expert variants: parse untimed, time the run.
    const std::string *sources[2] = {&def.unoptimized, &def.expert};
    for (int variant = 0; variant < 2; ++variant) {
      ompdart::SourceManager sourceManager(def.name + ".c", *sources[variant]);
      ompdart::ASTContext context;
      ompdart::DiagnosticEngine diags;
      if (!ompdart::parseSource(sourceManager, context, diags))
        return false;
      Interpreter interpreter(context.unit());
      const Clock::time_point start = Clock::now();
      (void)interpreter.run();
      interpSeconds[variant == 0 ? 0 : 2] += secondsSince(start);
    }
    // OMPDart variant: the plan applied as an execution overlay, as
    // exp::runBenchmark runs it.
    ompdart::PipelineConfig config;
    config.includeOutputInReport = false;
    ompdart::Session session(def.name + ".c", def.unoptimized, config);
    if (!session.run())
      return false;
    countIr(session.ir());
    ompdart::ApplyToInterpBackend backend;
    ompdart::PlanConsumerInput input;
    input.ir = &session.ir();
    input.source = &session.sourceManager();
    input.unit = &session.parse().unit();
    if (!backend.consume(input))
      return false;
    Interpreter interpreter(session.parse().unit(), {}, &backend.overlay());
    const Clock::time_point start = Clock::now();
    const auto result = interpreter.run();
    interpSeconds[1] += secondsSince(start);
    const auto &ledger = result.ledger;
    using ompdart::sim::TransferDir;
    htod += ledger.bytes(TransferDir::HtoD);
    dtoh += ledger.bytes(TransferDir::DtoH);
    callsHtoD += ledger.calls(TransferDir::HtoD);
    callsDtoH += ledger.calls(TransferDir::DtoH);
    launches += ledger.kernelLaunches();
    perBenchmark.add("sim.bytes." + def.name,
                     static_cast<double>(ledger.totalBytes()), "bytes");
  }

  double oracleSeconds = 0.0;
  for (const CorpusEntry &entry : makeCorpus(options.seed)) {
    const Clock::time_point start = Clock::now();
    (void)ompdart::verify::runOracle(entry.program);
    oracleSeconds += secondsSince(start);
    ompdart::Session session(entry.label + ".c", entry.program.combined());
    countIr(session.ir());
  }

  out.add("mapping.regions", regions, "count");
  out.add("mapping.map_items", mapItems, "count");
  out.add("mapping.update_items", updateItems, "count");
  out.add("interp.unoptimized_s", interpSeconds[0], "s");
  out.add("interp.ompdart_s", interpSeconds[1], "s");
  out.add("interp.expert_s", interpSeconds[2], "s");
  out.add("verify.oracle_s", oracleSeconds, "s");
  out.add("sim.bytes_htod", static_cast<double>(htod), "bytes");
  out.add("sim.bytes_dtoh", static_cast<double>(dtoh), "bytes");
  out.add("sim.calls_htod", static_cast<double>(callsHtoD), "count");
  out.add("sim.calls_dtoh", static_cast<double>(callsDtoH), "count");
  out.add("sim.kernel_launches", static_cast<double>(launches), "count");
  for (const auto &[name, value] : perBenchmark.entries())
    out.add(name, value.first, value.second);
  return true;
}

bool selfCheckDroppedFromLeg() {
  // The first generated program whose plan has an observable from-leg:
  // dropping it must make the oracle's check fail the operation.
  for (std::uint64_t genSeed = 1; genSeed < 100; ++genSeed) {
    const auto program = ompdart::gen::generateProgram(genSeed);
    const std::string source = program.combined();
    ompdart::Session session("selfcheck.c", source);
    if (!session.run())
      continue;
    for (const auto &mutation : ompdart::check::enumerateMutations(
             session.ir())) {
      if (mutation.kind != ompdart::check::Mutation::Kind::DropFromLeg)
        continue;
      const auto broken = ompdart::check::applyMutation(session.ir(), mutation);
      const auto verdict = ompdart::verify::verifyIr(
          "selfcheck.c", source, broken, program.provableTrips);
      OpLedger ledger;
      const std::string failure = oracleFailure(verdict);
      if (failure.empty())
        ledger.pass();
      else
        ledger.fail("selfcheck", failure);
      return ledger.failed() == 1;
    }
  }
  return false;
}

} // namespace perfbench
