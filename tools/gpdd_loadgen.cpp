// gpdd_loadgen — chaos soak harness for the gpdd detection service.
//
// Spawns a gpdd child over pipes, drives thousands of interleaved tenant
// sessions through the framed protocol with seeded transport faults, and
// verifies the service's answers against in-process ground truth:
//
//   * workload: per session a random n-process computation's notification
//     streams (vector clocks generated by a seeded message-passing walk);
//     ground truth = feeding the complete streams to a local
//     ConjunctiveMonitor.
//   * faults (per faulty session, all seeded and precomputed): dropped
//     frames, duplicated frames, reordered sends, corrupted payload bytes
//     (checksum-failing frames), inter-frame garbage bytes, and abandoned
//     sessions that go idle mid-stream. Dropped/corrupted frames are
//     re-sent only when the server NACKs them, with capped exponential
//     backoff — the real retransmit loop, not a replay shortcut.
//   * lockstep: every batch ends with an intact SYNC frame and the driver
//     waits for its echo, so each batch's bytes are fully decoded before
//     the next begins (no decoder state straddles a batch boundary, which
//     is what makes kill/restart runs comparable).
//   * chaos: --kill-clean K checkpoints after batch K, SIGKILLs the child,
//     restarts it with --recover, and requires every session's final
//     VERDICT to be byte-identical to an uninterrupted control run.
//     --kill-dirty K SIGKILLs mid-stream with no checkpoint barrier,
//     restarts from the last periodic checkpoint, replays everything from
//     batch 0 (the engine's dedup absorbs it), and checks soundness only.
//   * failover: --kill-leader K spawns a hot-standby follower (gpdd
//     --follow) next to the leader, SIGKILLs the leader after batch K's
//     SYNC echo, waits for the follower to promote itself, measures the
//     gap (ms from the kill to the PROMOTED frame; --max-failover-gap-ms
//     bounds it), redirects the remaining batches to the promoted
//     follower, and requires every final VERDICT to be byte-identical to
//     an uninterrupted control run — failover is exact, not merely sound.
//   * soundness (always): a "detected" verdict requires ground truth
//     detected; "not-detected" requires ground truth not detected;
//     Degraded/undecided are always allowed (degraded-not-wrong). Clean
//     sessions must match ground truth exactly when no shedding knob
//     (--mem-watermark/--idle-pumps/--max-combinations/--rate-bytes) is on.
//   * resources: peak child RSS is sampled from /proc every batch;
//     --rss-limit BYTES fails the run if it is exceeded. --expect-shed
//     fails the run unless the final STATS report shows the overload
//     ladder actually firing.
//
// Exit codes follow the repo taxonomy: 0 = soak passed, 1 = bad usage or a
// verification failure (with a "FAIL:" line on stderr), 2 = internal error.
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "monitor/online.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/openmetrics.h"
#include "service/frame.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using gpd::service::FrameDecoder;
using gpd::service::encodeFrame;

namespace log = gpd::obs::log;

int usage() {
  log::rawStderr()
      << "usage: gpdd_loadgen --server PATH [--sessions N] [--tenants N]\n"
      << "         [--processes N] [--events N] [--ptrue P] [--batches N]\n"
      << "         [--seed S]\n"
      << "         [--fault-fraction F] [--abandon F] [--evb F]\n"
      << "         [--drop P] [--dup P] [--reorder P] [--corrupt P]\n"
      << "         [--garbage P] [--kill-clean K] [--kill-dirty K]\n"
      << "         [--kill-leader K] [--max-failover-gap-ms MS]\n"
      << "         [--checkpoint FILE] [--checkpoint-every N]\n"
      << "         [--full-every N]\n"
      << "         [--threads N] [--shards N] [--mem-watermark BYTES]\n"
      << "         [--idle-pumps N] [--max-combinations N] [--rate-bytes N]\n"
      << "         [--rss-limit BYTES] [--expect-shed] [--verbose]\n"
      << "         [--telemetry FILE] [--flight-recorder FILE]\n";
  return 1;
}

long long parseInt(const std::string& word, const char* what) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(word, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  GPD_INPUT_CHECK(used == word.size() && !word.empty(),
                  "'" << word << "' is not an integer (" << what << ")");
  return v;
}

double parseReal(const std::string& word, const char* what) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(word, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  GPD_INPUT_CHECK(used == word.size() && !word.empty(),
                  "'" << word << "' is not a number (" << what << ")");
  GPD_INPUT_CHECK(v >= 0.0 && v <= 1.0, what << " must be in [0, 1]");
  return v;
}

struct Options {
  std::string server;
  std::size_t sessions = 64;
  std::size_t tenants = 8;
  int processes = 3;
  int events = 8;             // events per process
  double ptrue = 0.30;        // per-event local-predicate probability
  std::size_t batches = 24;   // batches the workload is spread over
  std::uint64_t seed = 1;
  double faultFraction = 0.5;
  double abandonFraction = 0.0;
  double evbFraction = 0.25;
  double dropP = 0.08;
  double dupP = 0.08;
  double reorderP = 0.10;
  double corruptP = 0.05;
  double garbageP = 0.05;
  long long killClean = -1;   // checkpoint + SIGKILL + recover after batch K
  long long killDirty = -1;   // SIGKILL mid-batch K, recover + full replay
  long long killLeader = -1;  // SIGKILL leader after batch K; follower serves
  long long maxFailoverGapMs = 0;  // 0 = unbounded
  std::string checkpointPath;
  long long checkpointEvery = 0;
  long long fullEvery = 0;
  int threads = 1;
  int shards = 8;
  long long memWatermark = 0;
  long long idlePumps = 0;
  long long maxCombinations = 0;
  long long rateBytes = 0;
  long long rssLimit = 0;
  bool expectShed = false;
  bool verbose = false;
  // Telemetry validation: pass --telemetry-file FILE --telemetry-every 20
  // to the spawned server (the follower gets FILE.follower), assert the
  // scrape parses as OpenMetrics mid-soak and at the end, and in failover
  // mode wait for the replication-lag gauges to read 0 before the kill.
  std::string telemetryPath;
  // Pass --flight-recorder FILE to the server (FILE.follower for the
  // standby) and assert a well-formed ring after every kill and a
  // postmortem dump after the final drain.
  std::string flightRecorderPath;
};

Options parseFlags(int argc, char** argv) {
  Options o;
  auto need = [&](int i) -> std::string {
    GPD_INPUT_CHECK(i < argc, "flag '" << argv[i - 1] << "' needs a value");
    return argv[i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--server") {
      o.server = need(++i);
    } else if (a == "--sessions") {
      o.sessions = static_cast<std::size_t>(parseInt(need(++i), "--sessions"));
      GPD_INPUT_CHECK(o.sessions >= 1, "--sessions must be >= 1");
    } else if (a == "--tenants") {
      o.tenants = static_cast<std::size_t>(parseInt(need(++i), "--tenants"));
      GPD_INPUT_CHECK(o.tenants >= 1, "--tenants must be >= 1");
    } else if (a == "--processes") {
      o.processes = static_cast<int>(parseInt(need(++i), "--processes"));
      GPD_INPUT_CHECK(o.processes >= 1 && o.processes <= 64,
                      "--processes out of range");
    } else if (a == "--events") {
      o.events = static_cast<int>(parseInt(need(++i), "--events"));
      GPD_INPUT_CHECK(o.events >= 1 && o.events <= 4096,
                      "--events out of range");
    } else if (a == "--batches") {
      o.batches = static_cast<std::size_t>(parseInt(need(++i), "--batches"));
      GPD_INPUT_CHECK(o.batches >= 2, "--batches must be >= 2");
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(parseInt(need(++i), "--seed"));
    } else if (a == "--ptrue") {
      o.ptrue = parseReal(need(++i), "--ptrue");
    } else if (a == "--fault-fraction") {
      o.faultFraction = parseReal(need(++i), "--fault-fraction");
    } else if (a == "--abandon") {
      o.abandonFraction = parseReal(need(++i), "--abandon");
    } else if (a == "--evb") {
      o.evbFraction = parseReal(need(++i), "--evb");
    } else if (a == "--drop") {
      o.dropP = parseReal(need(++i), "--drop");
    } else if (a == "--dup") {
      o.dupP = parseReal(need(++i), "--dup");
    } else if (a == "--reorder") {
      o.reorderP = parseReal(need(++i), "--reorder");
    } else if (a == "--corrupt") {
      o.corruptP = parseReal(need(++i), "--corrupt");
    } else if (a == "--garbage") {
      o.garbageP = parseReal(need(++i), "--garbage");
    } else if (a == "--kill-clean") {
      o.killClean = parseInt(need(++i), "--kill-clean");
    } else if (a == "--kill-dirty") {
      o.killDirty = parseInt(need(++i), "--kill-dirty");
    } else if (a == "--kill-leader") {
      o.killLeader = parseInt(need(++i), "--kill-leader");
    } else if (a == "--max-failover-gap-ms") {
      o.maxFailoverGapMs = parseInt(need(++i), "--max-failover-gap-ms");
    } else if (a == "--checkpoint") {
      o.checkpointPath = need(++i);
    } else if (a == "--checkpoint-every") {
      o.checkpointEvery = parseInt(need(++i), "--checkpoint-every");
    } else if (a == "--full-every") {
      o.fullEvery = parseInt(need(++i), "--full-every");
    } else if (a == "--threads") {
      o.threads = static_cast<int>(parseInt(need(++i), "--threads"));
    } else if (a == "--shards") {
      o.shards = static_cast<int>(parseInt(need(++i), "--shards"));
    } else if (a == "--mem-watermark") {
      o.memWatermark = parseInt(need(++i), "--mem-watermark");
    } else if (a == "--idle-pumps") {
      o.idlePumps = parseInt(need(++i), "--idle-pumps");
    } else if (a == "--max-combinations") {
      o.maxCombinations = parseInt(need(++i), "--max-combinations");
    } else if (a == "--rate-bytes") {
      o.rateBytes = parseInt(need(++i), "--rate-bytes");
    } else if (a == "--rss-limit") {
      o.rssLimit = parseInt(need(++i), "--rss-limit");
    } else if (a == "--telemetry") {
      o.telemetryPath = need(++i);
    } else if (a == "--flight-recorder") {
      o.flightRecorderPath = need(++i);
    } else if (a == "--expect-shed") {
      o.expectShed = true;
    } else if (a == "--verbose") {
      o.verbose = true;
    } else {
      usage();
      GPD_INPUT_CHECK(false, "unknown flag '" << a << "'");
    }
  }
  GPD_INPUT_CHECK(!o.server.empty(), "--server PATH is required");
  GPD_INPUT_CHECK((o.killClean >= 0) + (o.killDirty >= 0) +
                          (o.killLeader >= 0) <=
                      1,
                  "--kill-clean/--kill-dirty/--kill-leader are mutually "
                  "exclusive");
  GPD_INPUT_CHECK((o.killClean < 0 && o.killDirty < 0 && o.killLeader < 0) ||
                      !o.checkpointPath.empty(),
                  "kill modes need --checkpoint FILE");
  GPD_INPUT_CHECK(o.killLeader < 0 ||
                      o.killLeader + 1 < static_cast<long long>(o.batches),
                  "--kill-leader must leave batches for the promoted "
                  "follower to serve");
  return o;
}

// ---------------------------------------------------------------------------
// Workload generation (pure, seeded — shared by control and chaos runs).

struct SessionSpec {
  std::string tenant;
  std::string id;
  int n = 0;
  // Per process, its notifications in sequence order (seq = index).
  std::vector<std::vector<std::vector<int>>> notes;
  bool groundDetected = false;
  bool faulty = false;
  bool abandoned = false;  // no END/CLOSE: idle-shed / drain fodder
  bool useEvb = false;
};

struct Op {
  enum Kind { Open, Ev, Evb, End, Tick, Query, Close } kind;
  std::size_t sess = 0;
  int p = 0;
  std::uint64_t seq = 0;    // Ev: seq; Evb: firstSeq
  std::uint64_t count = 0;  // Evb: batch size; End: total; Tick: ticks
  // Transport fault plan (precomputed so every run sends identical bytes).
  bool drop = false;
  bool dup = false;
  bool corrupt = false;
  bool garbage = false;
};

struct Plan {
  std::vector<SessionSpec> sessions;
  std::vector<std::vector<Op>> batches;
  bool cleanStrict = false;  // clean sessions must match ground truth exactly
};

std::vector<SessionSpec> generateSessions(const Options& o) {
  gpd::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<SessionSpec> out;
  out.reserve(o.sessions);
  for (std::size_t i = 0; i < o.sessions; ++i) {
    SessionSpec s;
    s.tenant = "t" + std::to_string(i % o.tenants);
    s.id = "s" + std::to_string(i);
    s.n = o.processes;
    s.faulty = rng.chance(o.faultFraction);
    s.abandoned = rng.chance(o.abandonFraction);
    s.useEvb = !s.faulty && rng.chance(o.evbFraction);
    s.notes.assign(static_cast<std::size_t>(s.n), {});

    // A seeded message-passing walk yields genuine vector clocks: V[p][p]
    // counts p's events; a receive joins in the sender's current clock.
    std::vector<std::vector<int>> vc(
        static_cast<std::size_t>(s.n),
        std::vector<int>(static_cast<std::size_t>(s.n), 0));
    std::vector<int> remaining(static_cast<std::size_t>(s.n), o.events);
    int total = s.n * o.events;
    while (total > 0) {
      std::size_t p;
      do {
        p = rng.index(static_cast<std::size_t>(s.n));
      } while (remaining[p] == 0);
      --remaining[p];
      --total;
      if (s.n > 1 && rng.chance(0.4)) {
        std::size_t q;
        do {
          q = rng.index(static_cast<std::size_t>(s.n));
        } while (q == p);
        for (std::size_t k = 0; k < vc[p].size(); ++k) {
          vc[p][k] = std::max(vc[p][k], vc[q][k]);
        }
      }
      ++vc[p][p];
      if (rng.chance(o.ptrue)) s.notes[p].push_back(vc[p]);  // predicate true
    }

    // Ground truth: the complete streams through a local checker, offered
    // round-robin (the conjunctive verdict is interleaving-independent).
    gpd::monitor::MonitorOptions mo;
    mo.maxQueuePerProcess = 0;  // unbounded: this is the reference answer
    gpd::monitor::ConjunctiveMonitor truth(s.n, mo);
    for (int step = 0; step < o.events && !truth.detected(); ++step) {
      for (int p = 0; p < s.n && !truth.detected(); ++p) {
        const auto& list = s.notes[static_cast<std::size_t>(p)];
        if (static_cast<std::size_t>(step) < list.size()) {
          truth.offer(p, list[static_cast<std::size_t>(step)]);
        }
      }
    }
    s.groundDetected = truth.detected();
    out.push_back(std::move(s));
  }
  return out;
}

Plan buildPlan(const Options& o) {
  Plan plan;
  plan.sessions = generateSessions(o);
  plan.cleanStrict = o.memWatermark == 0 && o.idlePumps == 0 &&
                     o.maxCombinations == 0 && o.rateBytes == 0;
  gpd::Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 2);

  plan.batches.assign(o.batches, {});
  for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& s = plan.sessions[i];
    std::vector<Op> ops;
    ops.push_back({Op::Open, i, 0, 0, 0, false, false, false, false});

    // Interleave the per-process streams (EVB sessions batch per process).
    if (s.useEvb) {
      for (int p = 0; p < s.n; ++p) {
        const auto& list = s.notes[static_cast<std::size_t>(p)];
        for (std::size_t j = 0; j < list.size();) {
          const std::uint64_t cnt =
              std::min<std::size_t>(list.size() - j, 4);
          ops.push_back(
              {Op::Evb, i, p, j, cnt, false, false, false, false});
          j += cnt;
        }
      }
    } else {
      std::vector<std::size_t> cursor(static_cast<std::size_t>(s.n), 0);
      std::size_t left = 0;
      for (const auto& list : s.notes) left += list.size();
      while (left > 0) {
        std::size_t p;
        do {
          p = rng.index(static_cast<std::size_t>(s.n));
        } while (cursor[p] >= s.notes[p].size());
        Op op{Op::Ev, i, static_cast<int>(p), cursor[p], 0,
              false, false, false, false};
        if (s.faulty) {
          op.drop = rng.chance(o.dropP);
          op.dup = !op.drop && rng.chance(o.dupP);
          op.corrupt = !op.drop && rng.chance(o.corruptP);
          op.garbage = rng.chance(o.garbageP);
        }
        ops.push_back(op);
        ++cursor[p];
        --left;
      }
      // Reordered sends: swap adjacent EV ops (the reorder buffer's job).
      if (s.faulty) {
        for (std::size_t j = 1; j + 2 < ops.size(); ++j) {
          if (ops[j].kind == Op::Ev && ops[j + 1].kind == Op::Ev &&
              rng.chance(o.reorderP)) {
            std::swap(ops[j], ops[j + 1]);
            ++j;
          }
        }
      }
    }

    if (!s.abandoned) {
      // Ticks let gap-recovery NACKs fire (retryTimeout logical ticks per
      // round) and give the backoff-delayed retransmits time to land.
      const int tickRounds = s.faulty ? 5 : 1;
      for (int r = 0; r < tickRounds; ++r) {
        ops.push_back({Op::Tick, i, 0, 0, 70, false, false, false, false});
      }
      for (int p = 0; p < s.n; ++p) {
        ops.push_back({Op::End, i, p,
                       0, s.notes[static_cast<std::size_t>(p)].size(),
                       false, false, false, false});
      }
      for (int r = 0; r < tickRounds; ++r) {
        ops.push_back({Op::Tick, i, 0, 0, 70, false, false, false, false});
      }
      if (rng.chance(0.2)) {
        ops.push_back({Op::Query, i, 0, 0, 0, false, false, false, false});
      }
      ops.push_back({Op::Close, i, 0, 0, 0, false, false, false, false});
    }

    // Spread the session's ops over a window of batches; later sessions
    // start later so thousands are concurrently mid-stream.
    const std::size_t b0 =
        plan.sessions.size() > 1
            ? (i * (o.batches / 2)) / plan.sessions.size()
            : 0;
    const std::size_t window = o.batches - b0;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const std::size_t b = b0 + (j * window) / ops.size();
      plan.batches[std::min(b, o.batches - 1)].push_back(ops[j]);
    }
  }
  return plan;
}

std::string evPayload(const Plan& plan, const Op& op) {
  const SessionSpec& s = plan.sessions[op.sess];
  std::ostringstream os;
  os << "EV " << s.tenant << ' ' << s.id << ' ' << op.p << ' ' << op.seq;
  const auto& clock =
      s.notes[static_cast<std::size_t>(op.p)][static_cast<std::size_t>(op.seq)];
  for (int c : clock) os << ' ' << c;
  return os.str();
}

std::string opPayload(const Plan& plan, const Op& op) {
  const SessionSpec& s = plan.sessions[op.sess];
  std::ostringstream os;
  switch (op.kind) {
    case Op::Open:
      os << "OPEN " << s.tenant << ' ' << s.id << ' ' << s.n << " prio "
         << (op.sess % 8);
      break;
    case Op::Ev:
      return evPayload(plan, op);
    case Op::Evb: {
      os << "EVB " << s.tenant << ' ' << s.id << ' ' << op.p << ' ' << op.seq
         << ' ' << op.count;
      for (std::uint64_t j = 0; j < op.count; ++j) {
        os << '\n';
        const auto& clock = s.notes[static_cast<std::size_t>(op.p)]
                                   [static_cast<std::size_t>(op.seq + j)];
        for (std::size_t k = 0; k < clock.size(); ++k) {
          os << (k ? " " : "") << clock[k];
        }
      }
      break;
    }
    case Op::End:
      os << "END " << s.tenant << ' ' << s.id << ' ' << op.p << ' '
         << op.count;
      break;
    case Op::Tick:
      os << "TICK " << s.tenant << ' ' << s.id << ' ' << op.count;
      break;
    case Op::Query:
      os << "QUERY " << s.tenant << ' ' << s.id;
      break;
    case Op::Close:
      os << "CLOSE " << s.tenant << ' ' << s.id;
      break;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Child process management.

struct Child {
  pid_t pid = -1;
  int inFd = -1;   // write end of child's stdin
  int outFd = -1;  // read end of child's stdout
};

Child spawnServer(const Options& o, bool recover,
                  const std::vector<std::string>& extra = {},
                  const std::string& checkpointOverride = {}) {
  int inPipe[2];
  int outPipe[2];
  GPD_CHECK(::pipe(inPipe) == 0 && ::pipe(outPipe) == 0);
  const pid_t pid = ::fork();
  GPD_CHECK(pid >= 0);
  if (pid == 0) {
    ::dup2(inPipe[0], 0);
    ::dup2(outPipe[1], 1);
    ::close(inPipe[0]);
    ::close(inPipe[1]);
    ::close(outPipe[0]);
    ::close(outPipe[1]);
    std::vector<std::string> args;
    args.push_back(o.server);
    auto flag = [&](const char* name, long long v) {
      if (v > 0) {
        args.push_back(name);
        args.push_back(std::to_string(v));
      }
    };
    flag("--threads", o.threads);
    flag("--shards", o.shards);
    flag("--mem-watermark", o.memWatermark);
    flag("--idle-pumps", o.idlePumps);
    flag("--max-combinations", o.maxCombinations);
    flag("--rate-bytes", o.rateBytes);
    const std::string& ckpt =
        checkpointOverride.empty() ? o.checkpointPath : checkpointOverride;
    if (!ckpt.empty()) {
      args.push_back("--checkpoint");
      args.push_back(ckpt);
      flag("--checkpoint-every", o.checkpointEvery);
      flag("--full-every", o.fullEvery);
      if (recover) args.push_back("--recover");
    }
    // Follower spawns (non-empty checkpointOverride) write their own
    // telemetry/ring files so the leader's are never clobbered.
    const bool isFollower = !checkpointOverride.empty();
    if (!o.telemetryPath.empty()) {
      args.push_back("--telemetry-file");
      args.push_back(o.telemetryPath + (isFollower ? ".follower" : ""));
      args.push_back("--telemetry-every");
      args.push_back("20");
    }
    if (!o.flightRecorderPath.empty()) {
      args.push_back("--flight-recorder");
      args.push_back(o.flightRecorderPath + (isFollower ? ".follower" : ""));
    }
    for (const std::string& a : extra) args.push_back(a);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(o.server.c_str(), argv.data());
    std::perror("gpdd_loadgen: execv");
    ::_exit(127);
  }
  ::close(inPipe[0]);
  ::close(outPipe[1]);
  Child c;
  c.pid = pid;
  c.inFd = inPipe[1];
  c.outFd = outPipe[0];
  return c;
}

long readRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string word;
  while (in >> word) {
    if (word == "VmRSS:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
  }
  return 0;
}

bool writeAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// The soak runner: reactive NACK/retransmit state plus verdict collection.

struct RunStats {
  std::uint64_t framesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t nacksSeen = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t errFrames = 0;
  std::uint64_t detectFrames = 0;
  std::uint64_t shedFrames = 0;
  std::uint64_t degradeFrames = 0;
  long peakRssKb = 0;
};

class Runner {
 public:
  Runner(const Options& o, const Plan& plan) : o_(o), plan_(plan) {
    for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
      byKey_[plan.sessions[i].tenant + "/" + plan.sessions[i].id] = i;
    }
  }

  // Runs the whole plan. killBatch < 0 means no chaos; `leader` selects
  // the hot-standby failover mode (SIGKILL the leader after batch
  // killBatch, continue on the promoted follower). Returns false with
  // error() set on transport/verification plumbing failures.
  bool run(long long killBatch, bool dirty, bool leader = false) {
    verdicts_.assign(plan_.sessions.size(), "");
    rejected_.clear();
    retryCount_.clear();
    retransmitDue_.clear();
    stats_ = RunStats{};
    statsJson_.clear();
    attempt_ = 0;
    failoverGapMs_ = -1.0;
    gpd::Rng garbageRng(o_.seed * 0x9e3779b97f4a7c15ULL + 3);

    if (leader) {
      // Both barriers below wait for a file to appear, so files left by an
      // earlier run must go first or they would pass at once.
      ::unlink(replSockPath().c_str());
      ::unlink(followerSnapshotPath().c_str());
      child_ = spawnServer(o_, false,
                           {"--replication-socket", replSockPath()});
      // The follower must reach the leader within its failover deadline,
      // which runs from its start: spawn it only once the leader's
      // replication socket exists, so a slow leader start on a loaded box
      // cannot use the deadline up.
      if (!waitForFile(replSockPath(),
                       "leader never opened its replication socket")) {
        return false;
      }
      follower_ = spawnServer(o_, false,
                              {"--follow", replSockPath(),
                               "--failover-after-ms", "2000"},
                              followerSnapshotPath());
      // Attach barrier: the follower persists the leader's snapshot as the
      // head of its own manifest chain the moment it lands. Waiting for
      // that file guarantees a standby exists before any batch flows — on
      // a loaded box the workload can otherwise outrun the follower's
      // connect loop and the kill would hit with no replica.
      if (!waitForFile(followerSnapshotPath(), "follower never attached")) {
        return false;
      }
    } else {
      child_ = spawnServer(o_, false);
    }
    for (std::size_t b = 0; b < plan_.batches.size(); ++b) {
      const std::string bytes = encodeBatch(b, garbageRng);
      if (dirty && killBatch == static_cast<long long>(b)) {
        // Dirty kill: stop the child mid-write with no checkpoint barrier,
        // then recover from whatever periodic checkpoint exists and replay
        // the entire history — dedup and idempotent OPEN/CLOSE errors
        // absorb it.
        writeAll(child_.inFd, bytes);  // child may die mid-read; best effort
        killChild(SIGKILL);
        // Validate the ring *before* respawning: the new server re-arms
        // with O_TRUNC and would wipe the evidence of the crash.
        if (!checkFlightRing(o_.flightRecorderPath, "after dirty kill")) {
          return false;
        }
        child_ = spawnServer(o_, manifestExists());
        ++attempt_;
        retryCount_.clear();
        retransmitDue_.clear();
        gpd::Rng replayRng(o_.seed * 0x9e3779b97f4a7c15ULL + 3);
        for (std::size_t rb = 0; rb <= b; ++rb) {
          if (!sendBatchAndSync(rb, encodeBatch(rb, replayRng))) return false;
        }
        continue;
      }
      if (!sendBatchAndSync(b, bytes)) return false;
      if (leader && killBatch == static_cast<long long>(b)) {
        // Batch boundary: the SYNC echo means nothing is in flight, so the
        // follower's replica is exactly the state the client has seen.
        // The lag gauges confirm that from the server's own telemetry.
        if (!awaitReplicationCaughtUp()) return false;
        if (!failover(b)) return false;
      } else if (!dirty && !leader && killBatch == static_cast<long long>(b)) {
        // Clean kill: checkpoint barrier, SIGKILL, recover. Everything up
        // to and including batch b is in the manifest; nothing in flight.
        if (!roundTrip("CHECKPOINT", "OK CHECKPOINT")) return false;
        killChild(SIGKILL);
        if (!checkFlightRing(o_.flightRecorderPath, "after clean kill")) {
          return false;
        }
        child_ = spawnServer(o_, true);
        ++attempt_;
      }
      if (b == plan_.batches.size() / 2 && plan_.batches.size() >= 50) {
        // Mid-soak scrape gate: the exposition must parse while the server
        // is under load, not just at the quiet end of the run.
        if (!awaitTelemetryParse("mid-soak")) return false;
      }
      sampleRss();
    }

    if (o_.expectShed || o_.verbose) {
      if (!roundTrip("STATS", "")) return false;
    }
    return shutdownAndDrain();
  }

  const std::vector<std::string>& verdicts() const { return verdicts_; }
  const std::set<std::size_t>& rejected() const { return rejected_; }
  const RunStats& stats() const { return stats_; }
  const std::string& statsJson() const { return statsJson_; }
  const std::string& error() const { return error_; }
  double failoverGapMs() const { return failoverGapMs_; }

 private:
  std::string replSockPath() const { return o_.checkpointPath + ".repl"; }

  std::string followerSnapshotPath() const {
    return o_.checkpointPath + ".follower";
  }

  // Polls for `path` to exist (a file or a socket), for up to 30 s.
  bool waitForFile(const std::string& path, const std::string& what) {
    for (int waited = 0; waited < 30000; waited += 5) {
      if (::access(path.c_str(), F_OK) == 0) return true;
      ::poll(nullptr, 0, 5);
    }
    return fail(what + " (no '" + path + "')");
  }

  // Polls the leader's telemetry file until it parses as valid OpenMetrics
  // and carries the build-info gauge. The server rewrites it atomically
  // every 20 pumps, so a short wait always suffices on a live server.
  bool awaitTelemetryParse(const char* when) {
    if (o_.telemetryPath.empty()) return true;
    std::string lastErr =
        "telemetry file '" + o_.telemetryPath + "' never appeared";
    for (int waited = 0; waited < 30000; waited += 20) {
      std::ifstream in(o_.telemetryPath);
      if (in.good()) {
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
          const gpd::obs::Exposition exp =
              gpd::obs::parseExposition(buf.str());
          if (exp.find("gpdd_build_info") == nullptr) {
            lastErr = "telemetry scrape lacks gpdd_build_info";
          } else {
            log::Event(log::Level::kInfo, "loadgen", "telemetry scrape ok")
                .kv("when", when)
                .kv("families",
                    static_cast<std::uint64_t>(exp.families.size()));
            return true;
          }
        } catch (const gpd::InputError& e) {
          lastErr = e.what();
        }
      }
      ::poll(nullptr, 0, 20);
    }
    return fail(std::string(when) + ": " + lastErr);
  }

  // Failover mode: the leader streams every pump to the follower *before*
  // executing it, so once the standby has caught up the replication-lag
  // gauges read 0. Scrape until they do — only then is the kill guaranteed
  // to lose nothing.
  bool awaitReplicationCaughtUp() {
    if (o_.telemetryPath.empty()) return true;
    std::string lastSeen = "no scrape parsed";
    for (int waited = 0; waited < 30000; waited += 20) {
      std::ifstream in(o_.telemetryPath);
      if (in.good()) {
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
          const gpd::obs::Exposition exp =
              gpd::obs::parseExposition(buf.str());
          const double lagPumps =
              exp.value("gpdd_replication_lag_pumps", -1);
          const double lagBytes =
              exp.value("gpdd_replication_lag_bytes", -1);
          if (lagPumps == 0 && lagBytes == 0) return true;
          std::ostringstream seen;
          seen << "lag pumps=" << lagPumps << " bytes=" << lagBytes;
          lastSeen = seen.str();
        } catch (const gpd::InputError& e) {
          lastSeen = e.what();
        }
      }
      ::poll(nullptr, 0, 20);
    }
    return fail("replication lag never returned to 0 (" + lastSeen + ")");
  }

  // After a SIGKILL the mmap-backed ring file must still load as a
  // well-formed dump (the page cache holds every record; nothing depended
  // on the dead process); a default-on build must have recorded events.
  bool checkFlightRing(const std::string& path, const char* when) {
    if (o_.flightRecorderPath.empty()) return true;
    try {
      const gpd::obs::FlightRecorder::Dump dump =
          gpd::obs::FlightRecorder::load(path);
#ifndef GPD_OBS_DISABLED
      if (dump.entries.empty()) {
        return fail(std::string(when) + ": flight ring '" + path +
                    "' holds no events");
      }
#endif
      log::Event(log::Level::kInfo, "loadgen", "flight ring validated")
          .kv("when", when)
          .kv("recorded", dump.recorded)
          .kv("entries", static_cast<std::uint64_t>(dump.entries.size()));
      return true;
    } catch (const gpd::InputError& e) {
      return fail(std::string(when) + ": " + e.what());
    }
  }

  // SIGKILLs the leader at a batch boundary and waits for the standby to
  // notice and promote itself. The follower's stdout is silent until
  // promotion, so the first frames read are: PROMOTED, then the retained
  // (already acknowledged) response frames, then RESUME <token>.
  bool failover(std::size_t b) {
    killChild(SIGKILL);  // the leader; killChild also resets decoder_
    if (!checkFlightRing(o_.flightRecorderPath, "after leader kill")) {
      return false;
    }
    gpd::Stopwatch gap;
    child_ = follower_;
    follower_ = Child{};
    char buf[1 << 16];
    int waited = 0;
    bool promoted = false;
    bool resumed = false;
    while (!resumed) {
      while (auto payload = decoder_.pop()) {
        std::istringstream is(*payload);
        std::string verb;
        is >> verb;
        if (verb == "PROMOTED") {
          promoted = true;
          failoverGapMs_ = gap.elapsedMillis();
        } else if (verb == "RESUME") {
          std::string token;
          is >> token;
          const std::string want = syncToken(b);
          if (token != want) {
            return fail("follower resumed at '" + token +
                        "', expected the last acknowledged barrier '" + want +
                        "'");
          }
          resumed = true;
          break;
        } else {
          // Retained frames are re-sends of responses the dead leader had
          // already flushed to us; record them idempotently (a VERDICT
          // overwrite is byte-identical) and never schedule retransmits
          // off them — the control run saw each exactly once.
          handleRetained(*payload);
        }
      }
      if (resumed) break;
      struct pollfd pfd{child_.outFd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, 50);
      if (r < 0 && errno == EINTR) continue;
      if (r == 0) {
        waited += 50;
        if (waited >= 30000) {
          return fail("timed out waiting for follower promotion");
        }
        continue;
      }
      const ssize_t n = ::read(child_.outFd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return fail("read from follower failed");
      }
      if (n == 0) return fail("follower closed its pipe before promoting");
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      waited = 0;
    }
    if (!promoted) return fail("follower sent RESUME without PROMOTED");
    return true;
  }

  void handleRetained(const std::string& payload) {
    std::istringstream is(payload);
    std::string verb;
    is >> verb;
    if (verb == "VERDICT") {
      std::string tenant, id;
      is >> tenant >> id;
      auto it = byKey_.find(tenant + "/" + id);
      if (it != byKey_.end()) verdicts_[it->second] = payload;
    } else if (verb == "ERR") {
      std::string code, tenant, id;
      is >> code >> tenant >> id;
      if (code.rfind("admission-", 0) == 0 || code == "rate-limited") {
        auto it = byKey_.find(tenant + "/" + id);
        if (it != byKey_.end()) rejected_.insert(it->second);
      }
    }
  }

  std::string syncToken(std::size_t b) const {
    return "a" + std::to_string(attempt_) + "b" + std::to_string(b);
  }

  bool manifestExists() const {
    std::ifstream in(o_.checkpointPath);
    return in.good();
  }

  void killChild(int sig) {
    if (child_.pid > 0) {
      ::kill(child_.pid, sig);
      int status = 0;
      ::waitpid(child_.pid, &status, 0);
    }
    if (child_.inFd >= 0) ::close(child_.inFd);
    if (child_.outFd >= 0) ::close(child_.outFd);
    child_ = Child{};
    // A killed child can leave a partial frame in flight; never let its
    // bytes prefix the restarted child's stream.
    decoder_ = FrameDecoder{};
  }

  // Encodes one batch's byte stream: due retransmits first (clean), then
  // the scheduled ops with their fault plan, then the SYNC barrier frame.
  std::string encodeBatch(std::size_t b, gpd::Rng& garbageRng) {
    std::string bytes;
    auto emit = [&](const std::string& payload) {
      bytes += encodeFrame(payload);
      ++stats_.framesSent;
    };

    auto due = retransmitDue_.find(b);
    if (due != retransmitDue_.end()) {
      for (const auto& [sess, p, seq] : due->second) {
        Op op{Op::Ev, sess, p, seq, 0, false, false, false, false};
        emit(evPayload(plan_, op));
        ++stats_.retransmits;
      }
      retransmitDue_.erase(due);
    }

    for (const Op& op : plan_.batches[b]) {
      const std::string payload = opPayload(plan_, op);
      if (op.garbage) {
        const std::size_t len = 1 + garbageRng.index(48);
        for (std::size_t j = 0; j < len; ++j) {
          bytes += static_cast<char>(garbageRng.index(256));
        }
      }
      if (op.drop) continue;  // the NACK loop will ask for it
      if (op.corrupt) {
        // Full-length frame whose payload fails the checksum: the decoder
        // must discard and resync without losing the frames around it.
        std::string f = encodeFrame(payload);
        f[f.size() - 1] ^= 0x5a;
        bytes += f;
        continue;
      }
      emit(payload);
      if (op.dup) emit(payload);
    }
    bytes += encodeFrame("SYNC " + syncToken(b));
    ++stats_.framesSent;
    return bytes;
  }

  bool sendBatchAndSync(std::size_t b, const std::string& bytes) {
    stats_.bytesSent += bytes.size();
    if (!writeAll(child_.inFd, bytes)) {
      return fail("server pipe closed while sending batch " +
                  std::to_string(b));
    }
    return readUntilSync(b, "SYNC " + syncToken(b));
  }

  // Sends one central command and reads until its reply (prefix match so
  // "STATS" matches "STATS {...}"). A SYNC barrier follows to keep the
  // response stream aligned.
  bool roundTrip(const std::string& cmd, const std::string& reply) {
    const std::string token = "c" + std::to_string(attempt_) + "n" +
                              std::to_string(stats_.framesSent);
    std::string bytes = encodeFrame(cmd);
    bytes += encodeFrame("SYNC " + token);
    stats_.framesSent += 2;
    stats_.bytesSent += bytes.size();
    if (!writeAll(child_.inFd, bytes)) {
      return fail("server pipe closed during " + cmd);
    }
    (void)reply;  // the SYNC barrier implies the reply was processed
    return readUntilSync(SIZE_MAX, "SYNC " + token);
  }

  bool readUntilSync(std::size_t b, const std::string& want) {
    FrameDecoder& dec = decoder_;
    char buf[1 << 16];
    const int timeoutMs = 30000;
    int waited = 0;
    for (;;) {
      while (auto payload = dec.pop()) {
        if (*payload == want) return true;
        handleResponse(b, *payload);
      }
      struct pollfd pfd{child_.outFd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, 50);
      if (r < 0 && errno == EINTR) continue;
      if (r == 0) {
        waited += 50;
        if (waited >= timeoutMs) {
          return fail("timed out waiting for '" + want + "'");
        }
        continue;
      }
      const ssize_t n = ::read(child_.outFd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        return fail("read from server failed");
      }
      if (n == 0) return fail("server closed its pipe (crash?)");
      dec.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      waited = 0;
    }
  }

  void handleResponse(std::size_t b, const std::string& payload) {
    std::istringstream is(payload);
    std::string verb;
    is >> verb;
    if (verb == "NACK") {
      std::string tenant, id;
      int p = 0;
      std::uint64_t lo = 0, hi = 0;
      is >> tenant >> id >> p >> lo >> hi;
      ++stats_.nacksSeen;
      auto it = byKey_.find(tenant + "/" + id);
      if (it == byKey_.end()) return;
      const std::size_t sess = it->second;
      // Capped exponential backoff in batches; give up after 6 rounds and
      // let the session degrade (still a sound verdict).
      int& retries = retryCount_[{sess, p}];
      if (retries > 6) return;
      const std::size_t delay =
          std::min<std::size_t>(8, std::size_t{1} << retries);
      ++retries;
      const std::size_t dueBatch =
          b == SIZE_MAX ? plan_.batches.size() : b + delay;
      if (dueBatch >= plan_.batches.size()) return;  // too late to help
      const auto& list = plan_.sessions[sess].notes[static_cast<std::size_t>(p)];
      for (std::uint64_t seq = lo; seq <= hi && seq < list.size(); ++seq) {
        retransmitDue_[dueBatch].emplace_back(sess, p, seq);
      }
    } else if (verb == "VERDICT") {
      std::string tenant, id;
      is >> tenant >> id;
      auto it = byKey_.find(tenant + "/" + id);
      if (it != byKey_.end()) verdicts_[it->second] = payload;
    } else if (verb == "DETECT") {
      ++stats_.detectFrames;
    } else if (verb == "SHED") {
      ++stats_.shedFrames;
    } else if (verb == "DEGRADE") {
      ++stats_.degradeFrames;
    } else if (verb == "ERR") {
      ++stats_.errFrames;
      std::string code, tenant, id;
      is >> code >> tenant >> id;
      if (code.rfind("admission-", 0) == 0 || code == "rate-limited") {
        // The session never opened (or lost a frame to rate limiting):
        // the service may legitimately never issue it a verdict.
        auto it = byKey_.find(tenant + "/" + id);
        if (it != byKey_.end()) rejected_.insert(it->second);
      }
    } else if (verb == "STATS") {
      statsJson_ = payload.substr(6);
    }
  }

  bool shutdownAndDrain() {
    std::string bytes = encodeFrame("SHUTDOWN");
    stats_.framesSent += 1;
    stats_.bytesSent += bytes.size();
    if (!writeAll(child_.inFd, bytes)) {
      return fail("server pipe closed during SHUTDOWN");
    }
    ::close(child_.inFd);
    child_.inFd = -1;
    // Drain: abandoned sessions get their final VERDICT frames here.
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(child_.outFd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) break;
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto payload = decoder_.pop()) {
        handleResponse(SIZE_MAX, *payload);
      }
    }
    int status = 0;
    ::waitpid(child_.pid, &status, 0);
    ::close(child_.outFd);
    const bool cleanExit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    child_ = Child{};
    if (!cleanExit) return fail("server exited uncleanly");
    return true;
  }

  void sampleRss() {
    const long kb = readRssKb(child_.pid);
    stats_.peakRssKb = std::max(stats_.peakRssKb, kb);
  }

  bool fail(const std::string& msg) {
    error_ = msg;
    killChild(SIGKILL);
    if (follower_.pid > 0) {
      ::kill(follower_.pid, SIGKILL);
      int status = 0;
      ::waitpid(follower_.pid, &status, 0);
      if (follower_.inFd >= 0) ::close(follower_.inFd);
      if (follower_.outFd >= 0) ::close(follower_.outFd);
      follower_ = Child{};
    }
    return false;
  }

  const Options& o_;
  const Plan& plan_;
  Child child_;
  Child follower_;
  double failoverGapMs_ = -1.0;
  FrameDecoder decoder_;
  std::map<std::string, std::size_t> byKey_;
  std::vector<std::string> verdicts_;
  std::map<std::pair<std::size_t, int>, int> retryCount_;
  std::map<std::size_t, std::vector<std::tuple<std::size_t, int, std::uint64_t>>>
      retransmitDue_;
  std::set<std::size_t> rejected_;
  RunStats stats_;
  std::string statsJson_;
  std::string error_;
  int attempt_ = 0;
};

// ---------------------------------------------------------------------------
// Verification.

int verify(const Options& o, const Plan& plan, const Runner& run,
           std::size_t& degradedOut) {
  int failures = 0;
  auto fail = [&](const std::string& msg) {
    log::error("loadgen", "FAIL: " + msg);
    ++failures;
  };
  degradedOut = 0;
  for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
    const SessionSpec& s = plan.sessions[i];
    const std::string& v = run.verdicts()[i];
    const std::string key = s.tenant + "/" + s.id;
    if (v.empty()) {
      if (run.rejected().count(i)) continue;  // never admitted: no verdict due
      fail("session " + key + " got no final VERDICT");
      continue;
    }
    std::istringstream is(v);
    std::string verb, tenant, id, word;
    is >> verb >> tenant >> id >> word;
    if (word == "detected" && !s.groundDetected) {
      fail("session " + key + " claims detected; ground truth is not");
    } else if (word == "not-detected" && s.groundDetected) {
      fail("session " + key + " claims not-detected; ground truth detected");
    }
    if (word == "degraded" || word == "undecided") ++degradedOut;
    if (plan.cleanStrict && !s.faulty && !s.abandoned &&
        word != "detected" && word != "not-detected") {
      fail("clean session " + key + " should be exact, got '" + word + "'");
    }
  }
  if (o.rssLimit > 0 && run.stats().peakRssKb * 1024 > o.rssLimit) {
    fail("peak RSS " + std::to_string(run.stats().peakRssKb) +
         " kB exceeds --rss-limit");
  }
  if (o.expectShed) {
    // The ladder must have *observably* fired: shed/degrade frames reached
    // clients, or the server's own counters say it rejected or shed load.
    const std::string& js = run.statsJson();
    auto counter = [&](const char* key) -> unsigned long long {
      const std::string needle = std::string("\"") + key + "\":";
      const std::size_t at = js.find(needle);
      if (at == std::string::npos) return 0;
      return std::strtoull(js.c_str() + at + needle.size(), nullptr, 10);
    };
    const bool shedObserved =
        run.stats().shedFrames > 0 || run.stats().degradeFrames > 0 ||
        counter("shed_mem") > 0 || counter("shed_idle") > 0 ||
        counter("shed_budget") > 0 || counter("degraded_mem") > 0 ||
        counter("admission_rejects") > 0;
    if (!shedObserved) fail("--expect-shed: no shedding observed");
  }
  return failures;
}

int runMain(int argc, char** argv) {
  const Options o = parseFlags(argc, argv);
  ::signal(SIGPIPE, SIG_IGN);
  const Plan plan = buildPlan(o);

  std::size_t totalNotes = 0;
  std::size_t detectedTruth = 0;
  for (const auto& s : plan.sessions) {
    for (const auto& l : s.notes) totalNotes += l.size();
    detectedTruth += s.groundDetected ? 1 : 0;
  }
  std::cout << "gpdd_loadgen: " << plan.sessions.size() << " sessions, "
            << totalNotes << " notifications, " << plan.batches.size()
            << " batches, ground truth detected=" << detectedTruth << "\n";

  Runner chaos(o, plan);
  const long long killBatch = o.killClean >= 0   ? o.killClean
                              : o.killDirty >= 0 ? o.killDirty
                                                 : o.killLeader;
  if (!chaos.run(killBatch, o.killDirty >= 0, o.killLeader >= 0)) {
    log::error("loadgen", "FAIL: " + chaos.error());
    return 1;
  }
  std::size_t degraded = 0;
  int failures = verify(o, plan, chaos, degraded);

  if (o.killLeader >= 0) {
    std::cout << "gpdd_loadgen: failover-gap-ms="
              << static_cast<long long>(chaos.failoverGapMs()) << "\n";
    if (chaos.failoverGapMs() < 0) {
      log::error("loadgen", "FAIL: no failover gap was measured");
      ++failures;
    } else if (o.maxFailoverGapMs > 0 &&
               chaos.failoverGapMs() >
                   static_cast<double>(o.maxFailoverGapMs)) {
      log::Event(log::Level::kError, "loadgen",
                 "FAIL: failover gap exceeds --max-failover-gap-ms")
          .kv("gap_ms", chaos.failoverGapMs())
          .kv("max_ms", static_cast<std::int64_t>(o.maxFailoverGapMs));
      ++failures;
    }
  }

  // Telemetry / flight-recorder postconditions. Checked *before* the
  // control run below: its servers reuse the same paths and would truncate
  // the chaos run's evidence. In leader mode the run ends on the promoted
  // follower, which writes to the ".follower" variants.
  const std::string chaosSuffix = o.killLeader >= 0 ? ".follower" : "";
  if (!o.telemetryPath.empty()) {
    const std::string scrapePath = o.telemetryPath + chaosSuffix;
    std::ifstream in(scrapePath);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      const gpd::obs::Exposition exp = gpd::obs::parseExposition(buf.str());
      if (exp.find("gpdd_build_info") == nullptr) {
        log::error("loadgen",
                   "FAIL: final scrape lacks gpdd_build_info: " + scrapePath);
        ++failures;
      }
#ifndef GPD_OBS_DISABLED
      if (exp.value("gpdd_pumps_total") <= 0) {
        log::error("loadgen", "FAIL: final scrape counts no pumps");
        ++failures;
      }
#endif
    } catch (const gpd::InputError& e) {
      log::error("loadgen", std::string("FAIL: final scrape: ") + e.what());
      ++failures;
    }
  }
  if (!o.flightRecorderPath.empty()) {
    const std::string ring = o.flightRecorderPath + chaosSuffix;
    try {
      const gpd::obs::FlightRecorder::Dump dump =
          gpd::obs::FlightRecorder::load(ring);
#ifndef GPD_OBS_DISABLED
      if (dump.entries.empty()) {
        log::error("loadgen", "FAIL: final flight ring holds no events");
        ++failures;
      }
#endif
    } catch (const gpd::InputError& e) {
      log::error("loadgen", std::string("FAIL: final flight ring: ") +
                                e.what());
      ++failures;
    }
    // The drain path must have dumped a postmortem next to the ring.
    const std::string post = ring + ".postmortem";
    std::ifstream pin(post);
    std::string firstLine;
    if (!pin.good() || !std::getline(pin, firstLine) ||
        firstLine.rfind("gpdfr dump reason=", 0) != 0) {
      log::error("loadgen",
                 "FAIL: no well-formed postmortem dump at '" + post + "'");
      ++failures;
    }
  }

  if (o.killClean >= 0 || o.killLeader >= 0) {
    // The control run replays the identical plan without the kill; every
    // session's final VERDICT must be byte-identical (crash recovery is
    // exact, not merely sound).
    Runner control(o, plan);
    if (!control.run(-1, false)) {
      log::error("loadgen", "FAIL: control run: " + control.error());
      return 1;
    }
    for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
      if (chaos.verdicts()[i] != control.verdicts()[i]) {
        log::Event(log::Level::kError, "loadgen",
                   "FAIL: recovery verdict mismatch for " +
                       plan.sessions[i].tenant + "/" + plan.sessions[i].id)
            .kv("chaos", chaos.verdicts()[i])
            .kv("control", control.verdicts()[i]);
        ++failures;
      }
    }
  }

  const RunStats& st = chaos.stats();
  std::cout << "gpdd_loadgen: frames=" << st.framesSent
            << " bytes=" << st.bytesSent << " nacks=" << st.nacksSeen
            << " retransmits=" << st.retransmits << " err=" << st.errFrames
            << " detect=" << st.detectFrames << " shed=" << st.shedFrames
            << " degrade=" << st.degradeFrames << " degraded-verdicts="
            << degraded << " peak-rss-kb=" << st.peakRssKb << "\n";
  if (o.verbose && !chaos.statsJson().empty()) {
    std::cout << "gpdd_loadgen: server stats " << chaos.statsJson() << "\n";
  }
  if (failures > 0) {
    log::error("loadgen",
               std::to_string(failures) + " failure(s)");
    return 1;
  }
  std::cout << "gpdd_loadgen: OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return runMain(argc, argv);
  } catch (const gpd::InputError& e) {
    gpd::obs::log::error("gpdd_loadgen", e.what());
    return 1;
  } catch (const std::exception& e) {
    gpd::obs::log::Event(gpd::obs::log::Level::kError, "gpdd_loadgen",
                         "internal error")
        .kv("what", e.what());
    return 2;
  }
}
