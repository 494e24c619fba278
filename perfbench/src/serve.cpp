// serve: the build-system and IDE path. A real PlanServer on a Unix socket
// with 2 connection workers and project fan-out capped at 2 threads, driven
// by 2 closed-loop client connections. Each round has two phases, both
// connections busy at once:
//
//   plans     A sends cold `plan` requests for TUs the cache has never seen
//             (a miss, then a store) while B sends warm repeats of the
//             previous round's TUs (cache hits): writes beside reads.
//   projects  A sends a cold `project` request for a freshly seeded
//             1000-TU scale project while B replans a held 1000-TU project
//             through a rotating cycle of no edit, a comment edit and a
//             fact edit: edits beside first builds.
//
// Set-up and rounds run on one CPU (see OneCpu below), so the threads
// interleave rather than run in parallel. The plan cache lives on the
// RAM-backed /dev/shm when it exists. Every reply is checked after the
// timed part against computations made in process.
#include "common.hpp"

#include "analysis/summary.hpp"
#include "cache/plan_cache.hpp"
#include "driver/incremental.hpp"
#include "driver/project.hpp"
#include "interp/interp.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "support/json.hpp"

#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <thread>

namespace fs = std::filesystem;
namespace json = ompdart::json;
namespace server = ompdart::server;

namespace perfbench {
namespace {

constexpr unsigned kColdPlans = 100; ///< cold plan requests per round
/// Warm plan requests per round. Fewer than the cold ones, so the latency
/// quantiles fall on compute-bound cold requests rather than on ~0.1 ms
/// warm round trips made mostly of thread wake-ups.
constexpr unsigned kWarmPlans = 40;
constexpr unsigned kReplans = 3;       ///< held-project replans per round
constexpr unsigned kProjectTus = 1000; ///< TUs per scale project
constexpr unsigned kSetupRepeats = 5;
/// Rounds before peak RSS is read: fixed, so that the memory a daemon
/// gains per cold project shows without tying the figure to throughput.
constexpr unsigned kRssRounds = 5;
constexpr unsigned kWorkers = 2;
constexpr unsigned kFanOut = 2;
const char *const kSocket = "serve.sock";

/// Where plan caches live: a private directory on the RAM-backed /dev/shm
/// when it exists, else the working directory. On a disk file system each
/// cache store's write-and-rename waits on writeback, and cold figures
/// swing with the disk rather than the program.
const std::string &cacheRoot() {
  static const std::string root = [] {
    std::error_code ec;
    const fs::path dir =
        fs::path("/dev/shm") / ("perfbench-" + std::to_string(getpid()));
    if (fs::is_directory("/dev/shm", ec) && fs::create_directories(dir, ec))
      return dir.string();
    return std::string(".");
  }();
  return root;
}

std::string cacheDir(const char *name) { return cacheRoot() + "/" + name; }

struct Source {
  std::string name;
  std::string text;
};

/// The cold plan TUs of round `round` (round -1 is the warm-up set):
/// generated programs of the default shape, distinct across rounds.
std::vector<Source> planTus(std::uint64_t seed, long round) {
  std::vector<Source> tus;
  const std::uint64_t base =
      1'000'000 + seed * 100'000 + static_cast<std::uint64_t>(round + 1) *
                                       kColdPlans;
  for (unsigned i = 0; i < kColdPlans; ++i) {
    const auto program = ompdart::gen::generateProgram(base + i);
    tus.push_back({program.name + ".c", program.combined()});
  }
  return tus;
}

std::uint64_t coldProjectSeed(std::uint64_t seed, unsigned round) {
  return 100'000 + seed * 1'000 + round;
}

std::uint64_t heldProjectSeed(std::uint64_t seed) { return 50'000 + seed; }

/// The held project in one of its four states: the edited stage carries a
/// trailing comment or not, and is at generator variant 0 or 1.
struct HeldState {
  bool comment = false;
  bool variant = false;
  [[nodiscard]] int id() const { return (comment ? 2 : 0) + (variant ? 1 : 0); }
};

unsigned editedIndex(std::uint64_t seed) {
  return 1 + static_cast<unsigned>(seed % (kProjectTus - 1));
}

std::vector<Source> scaleProject(std::uint64_t projectSeed) {
  std::vector<Source> tus;
  for (unsigned index = 0; index < kProjectTus; ++index) {
    auto tu = ompdart::gen::generateScaleTu(projectSeed, index, kProjectTus);
    tus.push_back({tu.name, std::move(tu.source)});
  }
  return tus;
}

std::vector<Source> heldProject(std::uint64_t seed, HeldState state) {
  std::vector<Source> tus = scaleProject(heldProjectSeed(seed));
  const unsigned index = editedIndex(seed);
  tus[index].text = ompdart::gen::generateScaleTu(heldProjectSeed(seed), index,
                                                  kProjectTus,
                                                  state.variant ? 1u : 0u)
                        .source;
  if (state.comment)
    tus[index].text += "/* edited */\n";
  return tus;
}

json::Value planRequest(const Source &tu) {
  json::Value request = json::Value::object();
  request.set("method", "plan");
  request.set("file", tu.name);
  request.set("source", tu.text);
  return request;
}

json::Value projectRequest(const std::string &project,
                           const std::vector<Source> &tus) {
  json::Value request = json::Value::object();
  request.set("method", "project");
  request.set("project", project);
  json::Value list = json::Value::array();
  for (const Source &tu : tus) {
    json::Value item = json::Value::object();
    item.set("name", tu.name);
    item.set("file", tu.name);
    item.set("source", tu.text);
    list.push(std::move(item));
  }
  request.set("tus", std::move(list));
  return request;
}

/// What the checks need of one reply. Outputs are kept as digests; the
/// text itself only when asked for (the replies whose transfers are
/// simulated).
struct Reply {
  std::string error; ///< transport or protocol failure
  bool success = false;
  std::string cache;
  std::uint64_t outputHash = 0;
  std::string output;
  struct Tu {
    std::string name;
    std::string reason;
    std::string cache;
    bool success = false;
    std::uint64_t outputHash = 0;
    std::string output;
  };
  std::vector<Tu> tus;
};

Reply readReply(const std::optional<json::Value> &response,
                const std::string &transportError, bool keepOutputs = false) {
  Reply reply;
  if (!response) {
    reply.error = "transport: " + transportError;
    return reply;
  }
  if (!response->boolOr("ok")) {
    reply.error = "error reply: " + response->stringOr("error");
    return reply;
  }
  const json::Value *result = response->find("result");
  if (result == nullptr) {
    reply.error = "reply without a result";
    return reply;
  }
  reply.success = result->boolOr("success");
  reply.cache = result->stringOr("cache");
  const std::string output = result->stringOr("output");
  reply.outputHash = fnv1a(output);
  if (keepOutputs)
    reply.output = output;
  if (const json::Value *tus = result->find("tus"))
    for (const json::Value &tu : tus->items()) {
      const std::string tuOutput = tu.stringOr("output");
      reply.tus.push_back({tu.stringOr("name"), tu.stringOr("reason"),
                           tu.stringOr("cache"), tu.boolOr("success"),
                           fnv1a(tuOutput), keepOutputs ? tuOutput : ""});
    }
  return reply;
}

/// The cold plan check: the reply is a successful miss whose output equals
/// Session::rewrite() of the same source computed in process.
std::string coldPlanFailure(const Reply &reply, const Source &tu) {
  if (!reply.error.empty())
    return reply.error;
  if (!reply.success)
    return "plan reply reports failure";
  if (reply.cache != "miss")
    return "cold plan reply reports cache '" + reply.cache + "'";
  ompdart::Session session(tu.name, tu.text);
  session.run();
  if (reply.outputHash != fnv1a(session.rewrite()))
    return "plan reply differs from Session::rewrite()";
  return "";
}

/// Reference outputs of a from-scratch ProjectSession, by TU name.
std::map<std::string, std::uint64_t>
referenceProject(const std::vector<Source> &tus) {
  ompdart::ProjectManifest manifest;
  for (const Source &tu : tus)
    manifest.tus.push_back({tu.name, tu.name, tu.text});
  ompdart::ProjectSession session(std::move(manifest), {},
                                  ompdart::ProjectSession::Options{kFanOut});
  session.run();
  std::map<std::string, std::uint64_t> outputs;
  for (const auto &item : session.items())
    outputs[item.name] = item.success ? fnv1a(item.output) : 0;
  return outputs;
}

std::string projectFailure(const Reply &reply,
                           const std::map<std::string, std::uint64_t> &expect) {
  if (!reply.error.empty())
    return reply.error;
  if (!reply.success)
    return "project reply reports failure";
  if (reply.tus.size() != expect.size())
    return "project reply has " + std::to_string(reply.tus.size()) +
           " TUs, expected " + std::to_string(expect.size());
  for (const Reply::Tu &tu : reply.tus) {
    const auto it = expect.find(tu.name);
    if (it == expect.end() || !tu.success || it->second != tu.outputHash)
      return "TU " + tu.name + " differs from a from-scratch ProjectSession";
  }
  return "";
}

/// Adds what a planned program moves when run in the simulated runtime;
/// returns why it did not run, if it did not.
std::string addTransfers(const std::string &program, EndToEnd &e2e) {
  const auto run = ompdart::interp::runProgram(program);
  if (!run.ok)
    return "rewritten program does not run: " + run.error;
  e2e.planBytes += run.ledger.totalBytes();
  e2e.planCalls += run.ledger.totalCalls();
  return "";
}

/// Adds what a project reply's rewritten TUs move, run in index order as
/// one program.
std::string addProjectTransfers(const Reply &reply, EndToEnd &e2e) {
  std::string program;
  for (const Reply::Tu &tu : reply.tus)
    program += tu.output;
  return addTransfers(program, e2e);
}

enum class ReplanKind { Unchanged, Comment, Fact };

const char *replanKindName(ReplanKind kind) {
  switch (kind) {
  case ReplanKind::Unchanged:
    return "unchanged";
  case ReplanKind::Comment:
    return "comment";
  case ReplanKind::Fact:
    return "fact";
  }
  return "?";
}

struct Timed {
  double ms = 0.0;
  Reply reply;
};

/// One daemon with its cache directory and two client connections.
struct Daemon {
  std::unique_ptr<server::PlanServer> server;
  server::PlanClient clients[2];

  bool start(std::string *error) {
    std::error_code ec;
    fs::remove_all(cacheDir("serve-cache"), ec);
    fs::create_directories(cacheDir("serve-cache"));
    server::ServerOptions options;
    options.socketPath = kSocket;
    options.workers = kWorkers;
    options.service.threads = kFanOut;
    options.service.config.cacheDir = cacheDir("serve-cache");
    options.service.config.cacheMode = ompdart::cache::CacheMode::ReadWrite;
    server = std::make_unique<server::PlanServer>(std::move(options));
    if (!server->start(error))
      return false;
    return clients[0].connect(kSocket, error) &&
           clients[1].connect(kSocket, error);
  }

  void stop() {
    clients[0].close();
    clients[1].close();
    if (server != nullptr) {
      server->stop();
      server->wait();
      server.reset();
    }
    std::error_code ec;
    fs::remove_all(cacheDir("serve-cache"), ec);
  }

  ~Daemon() { stop(); }

  /// One request on connection `client`. Traced (`layers` non-null), it
  /// makes PlanClient::call's three steps itself — dump the request, the
  /// socket round trip, parse the reply — and adds the time of the JSON
  /// steps and the bytes on the wire. Reply bytes count `plan` replies
  /// only: a `project` reply carries timing figures whose digits vary.
  Timed call(unsigned client, const json::Value &request, LayerTotals *layers,
             bool keepOutputs = false) {
    std::string error;
    const Clock::time_point start = Clock::now();
    std::optional<json::Value> response;
    if (layers == nullptr) {
      response = clients[client].call(request, &error);
    } else {
      const std::string line = request.dump(false);
      const double dumpSeconds = secondsSince(start);
      const auto replyLine = clients[client].callRaw(line, &error);
      const Clock::time_point received = Clock::now();
      if (replyLine)
        response = json::Value::parse(*replyLine, &error);
      layers->add("support.json_parse", secondsSince(received));
      layers->add("support.json_dump", dumpSeconds);
      layers->add("server.request_bytes", static_cast<double>(line.size() + 1));
      if (replyLine && request.stringOr("method") == "plan")
        layers->add("server.reply_bytes",
                    static_cast<double>(replyLine->size() + 1));
    }
    Timed timed;
    timed.ms = secondsSince(start) * 1000.0;
    timed.reply = readReply(response, error, keepOutputs);
    return timed;
  }
};

/// Confines the calling thread, and every thread it starts while this
/// lives, to one CPU of its current set, and restores the set afterwards.
/// The daemon's request path hands each request from thread to thread
/// twice; on a virtual machine whose other CPUs sit idle, each hand-off
/// wakes an idle virtual CPU, and how long that takes follows the host's
/// load, not the program's work.
class OneCpu {
public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
      return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &saved_))
        continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      confined_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  ~OneCpu() { release(); }
  OneCpu(const OneCpu &) = delete;
  OneCpu &operator=(const OneCpu &) = delete;
  void release() {
    if (confined_)
      sched_setaffinity(0, sizeof saved_, &saved_);
    confined_ = false;
  }

private:
  cpu_set_t saved_{};
  bool confined_ = false;
};

/// Runs `a` and `b` at once, one per client connection, and returns the
/// phase's wall seconds.
double phase(const std::function<void()> &a, const std::function<void()> &b) {
  const Clock::time_point start = Clock::now();
  std::thread other(b);
  a();
  other.join();
  return secondsSince(start);
}

struct Round {
  std::vector<Source> cold;
  std::vector<Timed> coldReplies;
  std::vector<Timed> warmReplies; ///< warm repeats of the previous set
  std::uint64_t projectSeed = 0;
  Timed projectReply;
  struct Replan {
    ReplanKind kind = ReplanKind::Unchanged;
    HeldState state;
    Timed timed;
  };
  std::vector<Replan> replans;
};

} // namespace

bool runServe(const Options &options, LayerTotals *layers, double seconds,
              OpLedger &ops, EndToEnd &e2e) {
  OneCpu oneCpu; // set-up and timed rounds; the checks use every CPU
  Daemon daemon;
  std::vector<double> setups;
  std::vector<Source> warmupSet;
  std::vector<Timed> warmupReplies;
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    daemon.stop();
    const Clock::time_point start = Clock::now();
    warmupSet = planTus(options.seed, -1);
    const std::vector<Source> held = heldProject(options.seed, {});
    std::string error;
    if (!daemon.start(&error)) {
      std::fprintf(stderr, "serve: cannot start the plan server: %s\n",
                   error.c_str());
      return false;
    }
    warmupReplies.clear();
    for (const Source &tu : warmupSet)
      warmupReplies.push_back(daemon.call(0, planRequest(tu), nullptr));
    const Timed first = daemon.call(0, projectRequest("held", held), nullptr);
    setups.push_back(secondsSince(start));
    if (!first.reply.error.empty() || !first.reply.success) {
      std::fprintf(stderr, "serve: the held project's first build failed\n");
      return false;
    }
  }
  e2e.setupSeconds = median(setups);

  std::vector<Round> rounds;
  HeldState state;
  unsigned replanCounter = 0;
  // Traced: one set of totals per connection, merged after each round.
  LayerTotals clientLayers[2];
  LayerTotals *const traced[2] = {layers ? &clientLayers[0] : nullptr,
                                  layers ? &clientLayers[1] : nullptr};
  const Clock::time_point loopStart = Clock::now();
  while (rounds.size() < kRssRounds || secondsSince(loopStart) < seconds) {
    const unsigned r = static_cast<unsigned>(rounds.size());
    Round &round = rounds.emplace_back();
    round.cold = planTus(options.seed, r);
    const std::vector<Source> &previous =
        r == 0 ? warmupSet : rounds[r - 1].cold;
    round.projectSeed = coldProjectSeed(options.seed, r);
    const std::vector<Source> project = scaleProject(round.projectSeed);
    std::vector<std::vector<Source>> heldStates;
    std::vector<Round::Replan> replans;
    for (unsigned k = 0; k < kReplans; ++k) {
      Round::Replan replan;
      replan.kind = static_cast<ReplanKind>(replanCounter++ % 3);
      if (replan.kind == ReplanKind::Comment)
        state.comment = !state.comment;
      if (replan.kind == ReplanKind::Fact)
        state.variant = !state.variant;
      replan.state = state;
      replans.push_back(replan);
      heldStates.push_back(heldProject(options.seed, state));
    }

    RoundTiming &timing = e2e.rounds.emplace_back();
    timing.seconds += phase(
        [&] {
          for (const Source &tu : round.cold)
            round.coldReplies.push_back(
                daemon.call(0, planRequest(tu), traced[0], r == 0));
        },
        [&] {
          for (unsigned k = 0; k < kWarmPlans; ++k)
            round.warmReplies.push_back(daemon.call(
                1, planRequest(previous[k % previous.size()]), traced[1]));
        });
    timing.seconds += phase(
        [&] {
          round.projectReply =
              daemon.call(0, projectRequest("cold", project), traced[0],
                          r == 0);
        },
        [&] {
          for (unsigned k = 0; k < kReplans; ++k) {
            replans[k].timed =
                daemon.call(1, projectRequest("held", heldStates[k]),
                            traced[1], r == 0);
            round.replans.push_back(replans[k]);
          }
        });
    for (const auto *list : {&round.coldReplies, &round.warmReplies})
      for (const Timed &timed : *list)
        timing.latenciesMs.push_back(timed.ms);
    timing.latenciesMs.push_back(round.projectReply.ms);
    for (const auto &replan : round.replans)
      timing.latenciesMs.push_back(replan.timed.ms);
    if (r + 1 == kRssRounds)
      e2e.peakRssMib = peakRssMib();
    if (layers != nullptr) {
      // Wire bytes are kept from round 0 only, so they are the same in
      // every run of a seed; times are summed over every traced round.
      for (LayerTotals &client : clientLayers) {
        if (r > 0) {
          client.sums.erase("server.request_bytes");
          client.sums.erase("server.reply_bytes");
        }
        layers->merge(client);
        client = {};
      }
      ++layers->rounds;
    }
  }
  daemon.stop();
  oneCpu.release();

  // --- checks, after the timed part ---
  std::map<int, std::map<std::string, std::uint64_t>> heldReference;
  const auto heldExpect = [&](HeldState held) -> const auto & {
    auto it = heldReference.find(held.id());
    if (it == heldReference.end())
      it = heldReference
               .emplace(held.id(),
                        referenceProject(heldProject(options.seed, held)))
               .first;
    return it->second;
  };
  // Sources the daemon has been sent before a round's cold project: a
  // cold project may be served from the cache only for those.
  std::set<std::uint64_t> seen;
  for (const Source &tu : warmupSet)
    seen.insert(fnv1a(tu.text));
  for (const bool comment : {false, true})
    for (const bool variant : {false, true})
      for (const Source &tu : heldProject(options.seed, {comment, variant}))
        seen.insert(fnv1a(tu.text));

  const auto record = [&](const std::string &name, const std::string &error) {
    if (error.empty())
      ops.pass();
    else
      ops.fail(name, error);
  };
  const std::string edited =
      heldProject(options.seed, {})[editedIndex(options.seed)].name;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round &round = rounds[r];
    const std::vector<Source> &previous =
        r == 0 ? warmupSet : rounds[r - 1].cold;
    const std::vector<Timed> &previousReplies =
        r == 0 ? warmupReplies : rounds[r - 1].coldReplies;
    for (std::size_t i = 0; i < round.cold.size(); ++i) {
      const Reply &reply = round.coldReplies[i].reply;
      std::string error = coldPlanFailure(reply, round.cold[i]);
      if (r == 0 && error.empty())
        error = addTransfers(reply.output, e2e);
      record("plan-cold " + round.cold[i].name, error);
      seen.insert(fnv1a(round.cold[i].text));
    }
    for (std::size_t k = 0; k < round.warmReplies.size(); ++k) {
      const Reply &reply = round.warmReplies[k].reply;
      const std::size_t i = k % previous.size();
      std::string error = reply.error;
      if (error.empty() && reply.cache != "hit")
        error = "warm plan reply reports cache '" + reply.cache + "'";
      if (error.empty() &&
          reply.outputHash != previousReplies[i].reply.outputHash)
        error = "warm plan reply differs from its cold reply";
      record("plan-warm " + previous[i].name, error);
    }

    const std::vector<Source> project = scaleProject(round.projectSeed);
    std::string coldError = projectFailure(round.projectReply.reply,
                                           referenceProject(project));
    for (std::size_t i = 0; coldError.empty() && i < project.size(); ++i) {
      const Reply::Tu &tu = round.projectReply.reply.tus[i];
      if (tu.reason != "initial")
        coldError = "first project request did not plan " + tu.name;
      else if (tu.cache != "miss" && seen.count(fnv1a(project[i].text)) == 0)
        coldError = "first project request served unseen " + tu.name +
                    " from the cache";
    }
    if (r == 0 && coldError.empty())
      coldError = addProjectTransfers(round.projectReply.reply, e2e);
    record("project-cold " + std::to_string(round.projectSeed), coldError);
    for (const Source &tu : project)
      seen.insert(fnv1a(tu.text));

    for (const auto &replan : round.replans) {
      std::string error =
          projectFailure(replan.timed.reply, heldExpect(replan.state));
      for (const Reply::Tu &tu : replan.timed.reply.tus) {
        if (!error.empty())
          break;
        const bool replanned = tu.reason != "reused";
        if (replan.kind == ReplanKind::Unchanged && replanned)
          error = "replan with no edit replanned " + tu.name;
        if (replan.kind != ReplanKind::Unchanged && tu.name == edited &&
            !replanned)
          error = "edited TU " + tu.name + " was not replanned";
      }
      if (r == 0 && error.empty())
        error = addProjectTransfers(replan.timed.reply, e2e);
      record(std::string("replan-") + replanKindName(replan.kind), error);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer replays on the serve inputs
// ---------------------------------------------------------------------------

bool traceServeLayers(const Options &options, const LayerTotals &layers,
                      Metrics &out) {
  namespace summary = ompdart::summary;
  const std::vector<Source> held = heldProject(options.seed, {});
  const std::vector<Source> plans = planTus(options.seed, 0);

  // Summary extraction, link and imports over every TU of the project.
  double extractSeconds = 0.0, summaryPrintSeconds = 0.0;
  std::vector<summary::ModuleSummary> modules;
  for (const Source &tu : held) {
    ompdart::Session session(tu.name, tu.text);
    const auto &context = session.parse();
    Clock::time_point start = Clock::now();
    modules.push_back(summary::extractModuleSummary(context.unit(), tu.name));
    extractSeconds += secondsSince(start);
    start = Clock::now();
    (void)modules.back().fingerprint();
    summaryPrintSeconds += secondsSince(start);
  }
  Clock::time_point start = Clock::now();
  const summary::LinkResult link = summary::linkProgram(modules);
  const double linkSeconds = secondsSince(start);
  double importsSeconds = 0.0, importsPrintSeconds = 0.0;
  for (const auto &module : modules) {
    start = Clock::now();
    const summary::TuImports imports = summary::buildTuImports(module, link);
    importsSeconds += secondsSince(start);
    start = Clock::now();
    (void)imports.fingerprint();
    importsPrintSeconds += secondsSince(start);
  }
  out.add("analysis.summary_extract_s", extractSeconds, "s");
  out.add("analysis.summary_fingerprint_s", summaryPrintSeconds, "s");
  out.add("analysis.link_s", linkSeconds, "s");
  out.add("analysis.link_passes", link.passes, "count");
  out.add("analysis.imports_s", importsSeconds, "s");
  out.add("analysis.imports_fingerprint_s", importsPrintSeconds, "s");

  // IncrementalProject in process, no cache: first build, then the replan
  // cycle three times (medians).
  const auto asProjectTus = [](const std::vector<Source> &tus) {
    std::vector<ompdart::ProjectTu> list;
    for (const Source &tu : tus)
      list.push_back({tu.name, tu.name, tu.text});
    return list;
  };
  {
    ompdart::IncrementalProject project(
        {}, ompdart::IncrementalProject::Options{kFanOut});
    start = Clock::now();
    (void)project.replan(asProjectTus(held));
    out.add("driver.project_cold_s", secondsSince(start), "s");
    std::vector<double> times[3];
    double replanned = 0.0, reused = 0.0, extracted = 0.0;
    HeldState state;
    for (unsigned cycle = 0; cycle < 3; ++cycle) {
      for (int kind = 0; kind < 3; ++kind) {
        if (kind == 1)
          state.comment = !state.comment;
        if (kind == 2)
          state.variant = !state.variant;
        const auto tus = asProjectTus(heldProject(options.seed, state));
        start = Clock::now();
        const auto result = project.replan(tus);
        times[kind].push_back(secondsSince(start) * 1000.0);
        if (cycle == 0) {
          replanned += result.tusReplanned;
          reused += result.tusReused;
          extracted += result.summariesExtracted;
        }
      }
    }
    out.add("driver.replan_unchanged_ms", median(times[0]), "ms");
    out.add("driver.replan_comment_ms", median(times[1]), "ms");
    out.add("driver.replan_fact_ms", median(times[2]), "ms");
    out.add("driver.tus_replanned", replanned, "count");
    out.add("driver.summaries_extracted", extracted, "count");
    out.add("driver.reuse_ratio", reused / (reused + replanned), "ratio");
  }

  // Plan cache: keys and entries come from a first cache the Sessions
  // fill; a second, empty cache is probed and stored into directly.
  {
    std::error_code ec;
    fs::remove_all(cacheDir("trace-cache"), ec);
    ompdart::cache::PlanCache filled(cacheDir("trace-cache") + "/filled",
                                     ompdart::cache::CacheMode::ReadWrite);
    ompdart::cache::PlanCache probed(cacheDir("trace-cache") + "/probed",
                                     ompdart::cache::CacheMode::ReadWrite);
    double missSeconds = 0.0, storeSeconds = 0.0, hitSeconds = 0.0,
           entryBytes = 0.0, hits = 0.0;
    for (const Source &tu : plans) {
      ompdart::PipelineConfig config;
      config.planCache = &filled;
      ompdart::Session session(tu.name, tu.text, config);
      session.run();
      const ompdart::cache::CacheKey key = session.planCacheKey();
      const auto entry = filled.lookup(key, tu.name);
      if (!entry)
        return false;
      start = Clock::now();
      const auto miss = probed.lookup(key, tu.name);
      missSeconds += secondsSince(start);
      start = Clock::now();
      probed.store(key, *entry);
      storeSeconds += secondsSince(start);
      start = Clock::now();
      const auto hit = probed.lookup(key, tu.name);
      hitSeconds += secondsSince(start);
      hits += hit.has_value() && !miss.has_value() ? 1.0 : 0.0;
      entryBytes += static_cast<double>(
          fs::file_size(probed.entryPathFor(key), ec));
    }
    const double n = static_cast<double>(plans.size());
    out.add("cache.lookup_miss_us", missSeconds / n * 1e6, "us");
    out.add("cache.store_us", storeSeconds / n * 1e6, "us");
    out.add("cache.lookup_hit_us", hitSeconds / n * 1e6, "us");
    out.add("cache.entry_bytes", entryBytes / n, "bytes");
    out.add("cache.warm_hit_ratio", hits / n, "ratio");
  }

  // The service in process and over the socket, on the same requests.
  {
    Daemon daemon;
    std::string error;
    if (!daemon.start(&error))
      return false;
    server::PlanService &service = daemon.server->service();
    std::vector<std::string> requestLines;
    for (const Source &tu : plans)
      requestLines.push_back(planRequest(tu).dump());
    for (const std::string &line : requestLines)
      (void)daemon.clients[0].callRaw(line, &error); // cold: fill the cache
    double roundTrip = 0.0;
    for (const std::string &line : requestLines) {
      start = Clock::now();
      const auto reply = daemon.clients[0].callRaw(line, &error);
      roundTrip += secondsSince(start);
      if (!reply)
        return false;
    }
    double handled = 0.0;
    for (const std::string &line : requestLines) {
      const auto request = json::Value::parse(line);
      start = Clock::now();
      (void)service.handle(*request);
      handled += secondsSince(start);
    }
    const json::Value project = projectRequest("held", held);
    (void)service.handle(project);
    std::vector<double> projectMs;
    for (int i = 0; i < 3; ++i) {
      start = Clock::now();
      (void)service.handle(project);
      projectMs.push_back(secondsSince(start) * 1000.0);
    }
    const double n = static_cast<double>(plans.size());
    out.add("server.service_plan_warm_us", handled / n * 1e6, "us");
    out.add("server.service_project_ms", median(projectMs), "ms");
    out.add("server.transport_warm_us", (roundTrip - handled) / n * 1e6, "us");
  }

  // What the traced rounds collected from their own requests: the client's
  // JSON work per round, and the wire bytes of round 0.
  out.add("support.json_parse_s", layers.perRound("support.json_parse"), "s");
  out.add("support.json_dump_s", layers.perRound("support.json_dump"), "s");
  const auto round0 = [&](const char *name) {
    const auto it = layers.sums.find(name);
    return it == layers.sums.end() ? 0.0 : it->second;
  };
  out.add("server.request_bytes", round0("server.request_bytes"), "bytes");
  out.add("server.reply_bytes", round0("server.reply_bytes"), "bytes");
  std::error_code ec;
  fs::remove_all(cacheDir("trace-cache"), ec);
  return true;
}

void removeCacheRoot() {
  std::error_code ec;
  if (cacheRoot() != ".")
    fs::remove_all(cacheRoot(), ec);
}

bool selfCheckAlteredReply() {
  // A real cold reply with one byte of its output changed must fail the
  // cold plan check.
  const std::string selfCheckCache = cacheDir("selfcheck-cache");
  std::error_code ec;
  fs::remove_all(selfCheckCache, ec);
  bool rejected = false;
  {
    server::ServiceOptions options;
    options.config.cacheDir = selfCheckCache;
    options.config.cacheMode = ompdart::cache::CacheMode::ReadWrite;
    options.threads = 1;
    server::PlanService service(options);
    const auto program = ompdart::gen::generateProgram(1);
    const Source tu{program.name + ".c", program.combined()};
    json::Value response = service.handle(planRequest(tu));
    std::string line = response.dump();
    const std::size_t at = line.find("omp target");
    if (at != std::string::npos) {
      line[at] = 'x';
      const auto altered = json::Value::parse(line);
      OpLedger ledger;
      const std::string failure =
          coldPlanFailure(readReply(altered, "unparsable reply"), tu);
      if (failure.empty())
        ledger.pass();
      else
        ledger.fail("selfcheck", failure);
      rejected = ledger.failed() == 1;
    }
  }
  fs::remove_all(selfCheckCache, ec);
  return rejected;
}

} // namespace perfbench
