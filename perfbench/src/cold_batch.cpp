// cold_batch: what a command-line user pays. Every translation unit runs
// the full pipeline in a fresh Session with the plan cache off, on one
// thread. A round is the nine paper benchmarks, seeded generated programs
// of both shapes and every known oracle failure, then the three
// deep-nesting inputs run once each through the built CLI (untimed).
// Outputs are checked after the timed part: each rewrite runs in the
// interpreter, and each generated program goes through the differential
// oracle.
#include "common.hpp"

#include "driver/pipeline.hpp"
#include "frontend/lexer.hpp"
#include "interp/interp.hpp"
#include "suite/benchmarks.hpp"
#include "verify/oracle.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <regex>
#include <thread>

namespace perfbench {
namespace {

constexpr unsigned kDefaultPrograms = 600;
constexpr unsigned kLargePrograms = 150;
constexpr unsigned kSetupRepeats = 31;
constexpr double kChildTimeoutSeconds = 30.0;

struct Tu {
  std::string name;
  std::string source;
  const std::string *expert = nullptr; ///< paper benchmarks only
  bool generated = false;
  bool provableTrips = true; ///< generated programs: oracle invariant 3
};

struct NestingInput {
  std::string name;
  std::string path;
};

std::vector<Tu> makeTus(std::uint64_t seed) {
  std::vector<Tu> tus;
  for (const auto &def : ompdart::suite::allBenchmarks())
    tus.push_back({def.name, def.unoptimized, &def.expert});
  std::vector<PoolProgram> picks =
      drawPool(seed, /*salt=*/1, kDefaultPrograms, kLargePrograms);
  for (const PoolProgram &known : knownOracleFailures())
    picks.push_back(known);
  for (const PoolProgram &pick : picks) {
    const auto program = pick.generate();
    tus.push_back({pick.label(), program.combined(), nullptr, true,
                   program.provableTrips});
  }
  return tus;
}

/// The three inputs that overflow the recursive-descent stack today. They
/// do not depend on the seed.
std::vector<NestingInput> writeNestingInputs() {
  std::vector<NestingInput> inputs;
  const auto write = [&](const std::string &name, const std::string &text) {
    const std::string path = "nesting-" + name + ".c";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    inputs.push_back({name, path});
  };
  write("parens-10k", "int f(void) { return " + std::string(10000, '(') +
                          "1" + std::string(10000, ')') + "; }\n");
  write("braces-100k", "void f(void) " + std::string(100000, '{') +
                           std::string(100000, '}') + "\n");
  std::string ifs = "void f(int x) {\n";
  for (int i = 0; i < 100000; ++i)
    ifs += "if (x) ";
  write("ifs-100k", ifs + "x = 1;\n}\n");
  return inputs;
}

/// Runs the CLI on one input as a child process (one at a time) and
/// returns an empty string when it ended by itself with a plan or a
/// located diagnostic, else why it did not.
std::string runNestingInput(const std::string &cli,
                            const NestingInput &input) {
  const std::string outPath = input.path + ".out";
  const std::string errPath = input.path + ".err";
  const pid_t pid = fork();
  if (pid < 0)
    return std::string("fork failed: ") + std::strerror(errno);
  if (pid == 0) {
    struct rlimit noCore {0, 0};
    setrlimit(RLIMIT_CORE, &noCore);
    const int out = open(outPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0)
      _exit(127);
    dup2(out, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execl(cli.c_str(), cli.c_str(), input.path.c_str(),
          static_cast<char *>(nullptr));
    _exit(127);
  }
  int status = 0;
  const Clock::time_point start = Clock::now();
  bool timedOut = false;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (secondsSince(start) > kChildTimeoutSeconds) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      timedOut = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (timedOut)
    return "no answer within the child time limit";
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    return "killed by signal " + std::to_string(sig) + " (" +
           strsignal(sig) + ")";
  }
  const int code = WEXITSTATUS(status);
  std::ifstream outFile(outPath), errFile(errPath);
  const std::string out((std::istreambuf_iterator<char>(outFile)), {});
  const std::string err((std::istreambuf_iterator<char>(errFile)), {});
  if (code == 0 && !out.empty())
    return "";
  static const std::regex located(R"((^|\n)[^\n:]+:\d+:\d+: error: )");
  if (code != 0 && std::regex_search(err, located))
    return "";
  if (code == 127)
    return "cannot run " + cli;
  return "exit " + std::to_string(code) + " without a plan or a located "
         "diagnostic";
}

struct TuRun {
  bool ok = false;
  std::string output;
  double stagedSeconds = 0.0; ///< traced: the stage timers' sum
};

/// The stages whose Session timers give the per-layer times, with the
/// layer each is reported under. The metrics stage and everything outside
/// the stages fall under driver.session_other.
constexpr std::pair<ompdart::Stage, const char *> kTimedStages[] = {
    {ompdart::Stage::Parse, "frontend.parse"},
    {ompdart::Stage::Cfg, "cfg.build"},
    {ompdart::Stage::Interproc, "analysis.interproc"},
    {ompdart::Stage::Plan, "mapping.plan"},
    {ompdart::Stage::Check, "check.check"},
    {ompdart::Stage::Rewrite, "rewrite.rewrite"},
};

/// One operation: a TU through a fresh Session, teardown included. With
/// `layers`, adds the Session's own stage timings and the sizes of what
/// the stages produced.
TuRun planTu(const Tu &tu, LayerTotals *layers) {
  TuRun run;
  ompdart::Session session(tu.name + ".c", tu.source);
  run.ok = session.run();
  run.output = session.rewrite();
  if (layers == nullptr)
    return run;
  for (const auto &[stage, layer] : kTimedStages) {
    layers->add(layer, session.stageSeconds(stage));
    run.stagedSeconds += session.stageSeconds(stage);
  }
  if (session.stageRuns(ompdart::Stage::Cfg) > 0)
    for (const auto &cfg : session.cfg())
      layers->add("cfg.blocks", static_cast<double>(cfg->size()));
  if (session.stageRuns(ompdart::Stage::Interproc) > 0)
    layers->add("analysis.interproc_passes", session.interproc().passes);
  layers->add("rewrite.output_bytes", static_cast<double>(run.output.size()));
  layers->add("frontend.source_bytes", static_cast<double>(tu.source.size()));
  return run;
}

/// Checks one TU's plan. A generated program must hold the differential
/// oracle's invariants (identical output, no more bytes than implicit
/// mapping, predicted bytes equal to simulated ones when every trip is
/// provable). Every rewrite, run in the interpreter, must print exactly
/// what the input prints under implicit mapping; a paper benchmark's must
/// also print what its hand-written expert variant prints and move no more
/// bytes than the input. Adds the rewrite's simulated transfers to `e2e`.
std::string checkRewrite(const Tu &tu, const std::string &rewritten,
                         EndToEnd &e2e) {
  const auto baseline = ompdart::interp::runProgram(tu.source);
  if (!baseline.ok)
    return "input does not run: " + baseline.error;
  const auto planned = ompdart::interp::runProgram(rewritten);
  if (!planned.ok)
    return "rewrite does not run: " + planned.error;
  e2e.planBytes += planned.ledger.totalBytes();
  e2e.planCalls += planned.ledger.totalCalls();
  if (tu.generated) {
    const std::string failure = oracleFailure(
        ompdart::verify::runOracle(tu.name, tu.source, tu.provableTrips));
    if (!failure.empty())
      return failure;
  }
  if (planned.output != baseline.output)
    return "rewrite prints other output than the input";
  if (tu.expert != nullptr) {
    const auto expert = ompdart::interp::runProgram(*tu.expert);
    if (!expert.ok || expert.output != planned.output)
      return "rewrite prints other output than the expert variant";
    if (planned.ledger.totalBytes() > baseline.ledger.totalBytes())
      return "rewrite moves more bytes than the input";
  }
  return "";
}

} // namespace

bool runColdBatch(const Options &options, LayerTotals *layers,
                  double seconds, OpLedger &ops, EndToEnd &e2e) {
  // The nesting inputs do not depend on the seed and are not timed
  // operations; writing them is left out of the timed set-up.
  const std::vector<NestingInput> nesting = writeNestingInputs();
  std::vector<double> setups;
  std::vector<Tu> tus;
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    tus = makeTus(options.seed);
    setups.push_back(secondsSince(start));
  }
  e2e.setupSeconds = median(setups);

  // round -> per-TU pipeline outcome; outputs are kept from round 0 only,
  // later rounds must reproduce them byte for byte.
  std::vector<std::string> outputs(tus.size());
  std::vector<std::vector<std::string>> pipelineErrors;
  std::vector<std::vector<std::string>> nestingErrors;
  const Clock::time_point loopStart = Clock::now();
  while (pipelineErrors.empty() || secondsSince(loopStart) < seconds) {
    const bool first = pipelineErrors.empty();
    std::vector<std::string> &errors = pipelineErrors.emplace_back(tus.size());
    RoundTiming &timing = e2e.rounds.emplace_back();
    for (std::size_t i = 0; i < tus.size(); ++i) {
      const Clock::time_point start = Clock::now();
      TuRun run = planTu(tus[i], layers);
      const double elapsed = secondsSince(start);
      if (layers != nullptr)
        layers->add("driver.session_other", elapsed - run.stagedSeconds);
      timing.seconds += elapsed;
      timing.latenciesMs.push_back(elapsed * 1000.0);
      if (!run.ok)
        errors[i] = "pipeline failed";
      else if (first)
        outputs[i] = std::move(run.output);
      else if (run.output != outputs[i])
        errors[i] = "rewrite differs from the first round's";
    }
    if (layers != nullptr)
      ++layers->rounds;
    std::vector<std::string> &childErrors = nestingErrors.emplace_back();
    for (const NestingInput &input : nesting)
      childErrors.push_back(runNestingInput(options.cliPath, input));
    if (first)
      e2e.peakRssMib = peakRssMib();
  }

  std::vector<std::string> checkErrors(tus.size());
  for (std::size_t i = 0; i < tus.size(); ++i)
    if (pipelineErrors[0][i].empty())
      checkErrors[i] = checkRewrite(tus[i], outputs[i], e2e);

  for (std::size_t round = 0; round < pipelineErrors.size(); ++round) {
    for (std::size_t i = 0; i < tus.size(); ++i) {
      const std::string &error = !pipelineErrors[round][i].empty()
                                     ? pipelineErrors[round][i]
                                     : checkErrors[i];
      if (error.empty())
        ops.pass();
      else
        ops.fail(tus[i].name, error);
    }
    for (std::size_t n = 0; n < nesting.size(); ++n) {
      if (nestingErrors[round][n].empty())
        ops.pass();
      else
        ops.fail("nesting-" + nesting[n].name, nestingErrors[round][n]);
    }
  }
  return true;
}

bool traceColdBatchLayers(const Options &options, const LayerTotals &layers,
                          Metrics &out) {
  // The lexer runs only inside Session::parse, so it is replayed on its
  // own over the round's TUs (mean of 3 passes).
  const std::vector<Tu> tus = makeTus(options.seed);
  constexpr unsigned kLexPasses = 3;
  double lexSeconds = 0.0, tokens = 0.0;
  for (unsigned pass = 0; pass < kLexPasses; ++pass) {
    for (const Tu &tu : tus) {
      ompdart::SourceManager sources(tu.name + ".c", tu.source);
      ompdart::DiagnosticEngine diags;
      ompdart::Lexer lexer(sources, diags);
      const Clock::time_point start = Clock::now();
      const std::size_t lexed = lexer.lexAll().size();
      lexSeconds += secondsSince(start);
      tokens += static_cast<double>(lexed);
    }
  }
  out.add("frontend.lex_s", lexSeconds / kLexPasses, "s");
  out.add("frontend.tokens", tokens / kLexPasses, "count");
  const auto perRound = [&](const char *name, const char *layer,
                            const char *unit) {
    out.add(name, layers.perRound(layer), unit);
  };
  perRound("frontend.source_bytes", "frontend.source_bytes", "bytes");
  perRound("frontend.parse_s", "frontend.parse", "s");
  perRound("cfg.build_s", "cfg.build", "s");
  perRound("cfg.blocks", "cfg.blocks", "count");
  perRound("analysis.interproc_s", "analysis.interproc", "s");
  perRound("analysis.interproc_passes", "analysis.interproc_passes", "count");
  perRound("mapping.plan_s", "mapping.plan", "s");
  perRound("check.check_s", "check.check", "s");
  perRound("rewrite.rewrite_s", "rewrite.rewrite", "s");
  perRound("rewrite.output_bytes", "rewrite.output_bytes", "bytes");
  perRound("driver.session_other_s", "driver.session_other", "s");
  return layers.rounds > 0;
}

} // namespace perfbench
