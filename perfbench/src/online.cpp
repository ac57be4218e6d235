// gpdd-churn and gpdd-resident: an in-process copy of gpdd's serve loop,
//
//   FrameDecoder → capturePumpRecord → Engine::submit → Engine::pump →
//   ManifestLog::store → encodeFrame,
//
// driven by a seeded open-loop client over 16 tenants multiplexed onto at
// most nproc simulated connections, each read at most 64 KiB per pump (one
// pipe buffer, gpdd's read limit). The client is simulated in the same
// thread; its work (building, corrupting and checking frames) runs between
// iterations and is never charged to the server.
//
// The timed passes pump inline: on a shared machine the pool's hand-offs
// make pooled figures swing with the host's scheduling far more than with
// the code. The traced run replays every recorded pump batch on a
// par::Pool of nproc as well, which checks the sequential ≡ pooled contract
// and gives par.pump_speedup.
//
// Each pass has a saturated phase (every frame is already due: peak
// throughput over server busy time) and a fixed-rate phase (frames fall due
// at the profile's frozen rate; latency is measured from each frame's due time).
// Every VERDICT and DETECT is checked against a ConjunctiveMonitor fed the
// complete streams, as gpdd_loadgen does; SHED, ERR, DEGRADE and degraded or
// undecided verdicts are failures (the run sets no budgets, watermark or
// idle timeout, so none is legitimate).
#include <unistd.h>


#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "monitor/online.h"
#include "par/pool.h"
#include "service/engine.h"
#include "service/frame.h"
#include "service/manifest_log.h"
#include "service/replica.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = gpd::service;

constexpr std::size_t kReadBytes = 64 * 1024;  // one pipe buffer per read
constexpr int kTenants = 16;
// At the fixed rate each simulated client flushes its connection once per
// millisecond (frames that fell due since the last flush go out together),
// as a batching client library would.
constexpr std::uint64_t kFlushNs = 1'000'000;
// Fixed-rate latencies are kept per quarter-second window of the phase.
constexpr std::uint64_t kWindowNs = 250'000'000;

struct Profile {
  bool resident = false;
  int nMin = 3, nMax = 3;       // processes per session
  int notes = 12;               // notifications per process
  double ptrue = 0.3;           // chance an event is a notification
  double evbShare = 0;          // sessions sending EVB batches of up to 4
  double dropP = 0, dupP = 0, reorderP = 0;
  int storeEvery = 32;          // pumps between delta checkpoints
  std::uint64_t fullEvery = 16; // every Nth checkpoint is a full manifest
  int restored = 0;             // open sessions in the warm-start manifest
  double spanS = 0.02;          // churn: one session's duration
  // Frozen: the fixed-rate phase's notification rate, one at which the
  // in-process loop (server plus simulated client) was busy about a third of
  // the time when the benchmark was introduced, so a host running twice as
  // slow still keeps up instead of queueing without bound; and the latency
  // limit behind slo_miss_ratio. Retuning them invalidates comparisons with
  // earlier runs.
  int ratePerS = 75'000;
  int sloMs = 5;
};

Profile profileFor(const std::string& workload) {
  Profile p;
  if (workload == "gpdd-resident") {
    p.resident = true;
    p.nMin = 6;
    p.nMax = 8;
    p.notes = 24;
    p.ptrue = 0.25;
    p.dropP = 0.01;
    p.dupP = 0.01;
    p.reorderP = 0.02;
    p.storeEvery = 1024;
    p.fullEvery = 16;
    p.restored = 2048;
    p.ratePerS = 20'000;
    p.sloMs = 50;
  } else {
    p.evbShare = 0.5;
  }
  return p;
}

enum OpType : std::uint8_t { kOpen, kEv, kEvb, kEnd, kClose };

struct Op {
  OpType type = kOpen;
  std::uint8_t p = 0;
  std::uint16_t seq = 0;
  std::uint16_t count = 0;
  bool drop = false;
  bool dup = false;
};

// One session: its notification streams, the ground truth, its planned
// frames and the client's view of what the server has received.
struct Sess {
  std::string tenant, id, key;
  int n = 0;
  int conn = 0;
  std::vector<int> offs;  // first note of process p in `clocks`, in notes
  std::vector<int> count;
  std::vector<std::uint16_t> clocks;
  bool truth = false;
  std::vector<int> witness;  // seq of the witness notification per process
  bool faults = false;
  std::vector<Op> ops;
  std::size_t nextOp = 0;
  double vStart = 0, vSpan = 0;  // schedule, virtual seconds

  std::vector<std::vector<char>> taken;  // sent (or dropped) at least once
  std::vector<std::vector<char>> got;    // reached the server
  std::unordered_map<std::uint32_t, std::uint64_t> dropDue;  // p<<16|seq
  int undelivered = 0;
  int neededLeft = 0;           // witness prerequisites not yet delivered
  std::uint64_t neededDue = 0;  // latest due time among those delivered
  std::uint64_t lastTakenPump = 0;
  bool detectSeen = false;
  bool closed = false;  // final VERDICT seen
  int refs = 0;         // frames still queued for this session

  const std::uint16_t* clock(int p, int seq) const {
    return &clocks[static_cast<std::size_t>(offs[p] + seq) * n];
  }
  double due(std::size_t op) const {
    return ops.size() < 2 ? vStart
                          : vStart + vSpan * static_cast<double>(op) /
                                         static_cast<double>(ops.size() - 1);
  }
};

// Builds a session's streams with a seeded message-passing walk (genuine
// vector clocks) and its ground truth from a ConjunctiveMonitor fed the
// complete streams.
std::unique_ptr<Sess> makeSession(Rand& r, const Profile& pf, std::uint64_t idx,
                                  int conns) {
  auto s = std::make_unique<Sess>();
  const int tenant = static_cast<int>(idx % kTenants);
  s->tenant = "t" + std::to_string(tenant);
  s->id = "s" + std::to_string(idx);
  s->key = s->tenant + " " + s->id;
  s->conn = tenant % conns;
  s->n = r.range(pf.nMin, pf.nMax);
  const int n = s->n;
  std::vector<std::vector<int>> vc(n, std::vector<int>(n, 0));
  std::vector<std::vector<std::vector<int>>> notes(n);
  int open = n;
  while (open > 0) {
    int p = r.range(0, n - 1);
    while (static_cast<int>(notes[p].size()) >= pf.notes) p = (p + 1) % n;
    if (r.chance(0.4)) {
      int q = r.range(0, n - 2);
      if (q >= p) ++q;
      for (int k = 0; k < n; ++k) vc[p][k] = std::max(vc[p][k], vc[q][k]);
    }
    ++vc[p][p];
    if (r.chance(pf.ptrue)) {
      notes[p].push_back(vc[p]);
      if (static_cast<int>(notes[p].size()) == pf.notes) --open;
    }
  }
  gpd::monitor::MonitorOptions mo;
  mo.maxQueuePerProcess = 0;
  gpd::monitor::ConjunctiveMonitor truth(n, mo);
  for (int step = 0; step < pf.notes && !truth.detected(); ++step) {
    for (int p = 0; p < n && !truth.detected(); ++p) truth.offer(p, notes[p][step]);
  }
  s->truth = truth.detected();
  for (int p = 0; p < n; ++p) {
    s->offs.push_back(static_cast<int>(s->clocks.size()) / n);
    s->count.push_back(static_cast<int>(notes[p].size()));
    for (const auto& c : notes[p]) {
      for (int v : c) s->clocks.push_back(static_cast<std::uint16_t>(v));
    }
    if (s->truth) {
      const auto& w = truth.witness()[p];
      s->witness.push_back(static_cast<int>(
          std::find(notes[p].begin(), notes[p].end(), w) - notes[p].begin()));
    }
  }
  s->taken.assign(n, std::vector<char>(pf.notes, 0));
  s->got = s->taken;
  s->undelivered = n * pf.notes;
  return s;
}

// The session's frames in send order: OPEN, the streams interleaved (in
// order per process; EVB sessions batch up to 4 per frame), END per process,
// CLOSE. Faulty sessions get seeded drops, duplicates and adjacent
// same-process reorders. Notifications below `prefix` were delivered before
// the warm start and are left out (with OPEN).
void planOps(Sess& s, Rand& r, const Profile& pf, const std::vector<int>& prefix) {
  const bool evb = r.chance(pf.evbShare);
  if (prefix.empty()) s.ops.push_back({kOpen, 0, 0, 0, false, false});
  std::vector<int> cur(s.n, 0);
  int left = 0;
  for (int p = 0; p < s.n; ++p) {
    cur[p] = prefix.empty() ? 0 : prefix[p];
    left += s.count[p] - cur[p];
  }
  const std::size_t first = s.ops.size();
  while (left > 0) {
    int p = r.range(0, s.n - 1);
    while (cur[p] >= s.count[p]) p = (p + 1) % s.n;
    const int batch = evb ? std::min(s.count[p] - cur[p], r.range(1, 4)) : 1;
    Op op{evb ? kEvb : kEv, static_cast<std::uint8_t>(p),
          static_cast<std::uint16_t>(cur[p]), static_cast<std::uint16_t>(batch),
          false, false};
    if (s.faults) {
      op.drop = r.chance(pf.dropP);
      op.dup = !op.drop && r.chance(pf.dupP);
    }
    s.ops.push_back(op);
    cur[p] += batch;
    left -= batch;
  }
  if (s.faults) {
    for (std::size_t j = first; j + 1 < s.ops.size(); ++j) {
      if (s.ops[j].p == s.ops[j + 1].p && r.chance(pf.reorderP)) {
        std::swap(s.ops[j], s.ops[j + 1]);
        ++j;
      }
    }
  }
  for (int p = 0; p < s.n; ++p) {
    s.ops.push_back({kEnd, static_cast<std::uint8_t>(p), 0,
                     static_cast<std::uint16_t>(s.count[p]), false, false});
  }
  s.ops.push_back({kClose, 0, 0, 0, false, false});
}

std::string payloadOf(const Sess& s, const Op& op) {
  std::string out;
  auto clockLine = [&](int p, int seq, char sep) {
    const std::uint16_t* c = s.clock(p, seq);
    for (int k = 0; k < s.n; ++k) {
      out += sep;
      out += std::to_string(c[k]);
      sep = ' ';
    }
  };
  switch (op.type) {
    case kOpen:
      return "OPEN " + s.key + " " + std::to_string(s.n);
    case kEv:
      out = "EV " + s.key + " " + std::to_string(op.p) + " " + std::to_string(op.seq);
      clockLine(op.p, op.seq, ' ');
      return out;
    case kEvb:
      out = "EVB " + s.key + " " + std::to_string(op.p) + " " +
            std::to_string(op.seq) + " " + std::to_string(op.count);
      for (int j = 0; j < op.count; ++j) clockLine(op.p, op.seq + j, '\n');
      return out;
    case kEnd:
      return "END " + s.key + " " + std::to_string(op.p) + " " +
             std::to_string(op.count);
    case kClose:
      return "CLOSE " + s.key;
  }
  return out;
}

struct Frame {
  std::uint64_t dueNs = 0;
  std::uint64_t genNs = 0;
  Sess* sess = nullptr;
  Op op;
  bool retx = false;
  std::string bytes;
};

struct Stats {
  // Latency per notification and per DETECT of the fixed-rate phase, and
  // its checkpoint store times, kept per quarter-second window; the
  // saturated phase's (notifications, busy ns) per half-second window.
  std::vector<Samples> latencyWin, detectWin, storeWin;
  std::vector<std::pair<double, double>> satWin;
  Samples pumpMs, storeMs, backlog, lateMs;
  double satNotifs = 0, satBusyNs = 0;
  double fixedBusyNs = 0, fixedWallNs = 0;
  std::uint64_t notifs = 0, retx = 0, retxUseful = 0;
  std::uint64_t nacks = 0;  // EngineStats.nacksEmitted over the measured phases
  std::uint64_t commands = 0, responses = 0, pumps = 0, recordBytes = 0;
  std::uint64_t stores = 0, storeBytes = 0;
  std::uint64_t attempted = 0, failed = 0;
};

// One pass of the workload: a fresh (or restored) engine, warm-up, the
// saturated phase and the fixed-rate phase.
class Harness {
 public:
  Harness(const RunOptions& o, const Profile& pf,
          std::unique_ptr<svc::Engine> engine, svc::ManifestLog& log,
          std::vector<std::unique_ptr<Sess>> restored, Rand gen, SpanLog& spans,
          Result& res)
      : pf_(pf), engine_(std::move(engine)), log_(log),
        gen_(gen), spans_(spans), res_(res) {
    conns_ = std::min(o.threads, kTenants);
    queues_.resize(conns_);
    urgent_.resize(conns_);
    deferred_.resize(conns_);
    decoders_.resize(conns_);
    const double perSession = static_cast<double>(
        (pf.nMin + pf.nMax) / 2.0 * pf.notes);
    sessionGapS_ = perSession / pf.ratePerS;
    if (pf.resident) {
      // Long-lived sessions: as many stay open as were restored.
      lifeS_ = static_cast<double>(pf.restored) * sessionGapS_;
      for (auto& s : restored) {
        s->vStart = 0;
        s->vSpan = lifeS_ * gen_.range(10, 100) / 100.0;
        adopt(std::move(s));
      }
      nextStartV_ = 0;
    }
  }

  // Saturated phase: every frame is due now; peak throughput over server
  // busy time.
  void saturated(double seconds, bool measure) {
    phaseStart_ = nowNs();
    const std::uint64_t end = phaseStart_ + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t nacks0 = engine_->stats().nacksEmitted;
    while (nowNs() < end) {
      fillSaturated();
      iterate(/*fixedRate=*/false, measure);
    }
    if (measure) st_.nacks += engine_->stats().nacksEmitted - nacks0;
    // Drain the backlog so the fixed-rate phase starts from an empty pipe.
    for (int guard = 0; guard < 2000 && pendingFrames() > 0; ++guard) {
      iterate(false, false);
    }
  }

  // Fixed-rate phase: frames fall due on the schedule; latency from due.
  void fixedRate(double seconds) {
    const std::uint64_t start = nowNs();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    phaseStart_ = start;
    anchorReal_ = start;
    anchorVirtual_ = vNow_;
    const std::uint64_t nacks0 = engine_->stats().nacksEmitted;
    while (true) {
      const std::uint64_t now = nowNs();
      if (now >= end) break;
      generateUntil(now + 20'000'000);  // 20 ms look-ahead
      std::uint64_t next = earliestDue();
      if (next > start) {  // the client flushes on a fixed grid
        next = start + (next - start + kFlushNs - 1) / kFlushNs * kFlushNs;
      }
      if (next > now) {
        // Idle until the next flush: sleep while far off, then spin
        // (yielding), so the wake-up does not depend on timer slack.
        const std::uint64_t until = std::min(next, end);
        if (until > nowNs() + 2'000'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(until - nowNs() - 1'000'000));
        }
        while (nowNs() < until) std::this_thread::yield();
        continue;
      }
      iterate(/*fixedRate=*/true, true);
    }
    st_.fixedWallNs += static_cast<double>(nowNs() - start);
    st_.nacks += engine_->stats().nacksEmitted - nacks0;
  }

  // Finalizes every open session (the SIGTERM drain path) and checks the
  // verdicts for soundness: a claimed detection needs ground truth, and a
  // session whose witness has fully arrived must have detected.
  void drainAndCheck() {
    std::vector<svc::Response> out;
    engine_->drain(out);
    for (const svc::Response& r : out) handle(r.payload, nowNs(), false, true);
  }

  svc::Engine& engine() { return *engine_; }
  Stats& stats() { return st_; }
  std::vector<std::vector<std::string>>& records() { return records_; }
  std::vector<std::uint64_t>& storePumps() { return storePumps_; }
  void record(bool on) { recording_ = on; }

 private:
  void adopt(std::unique_ptr<Sess> s) {
    Sess* raw = s.get();
    byKey_[raw->key] = raw;
    owned_[raw] = std::move(s);
    cursors_.push({raw->due(0), raw});
  }

  void startSession() {
    const std::uint64_t idx = nextSessionIdx_++;
    auto s = makeSession(gen_, pf_, idx, conns_);
    s->faults = pf_.resident;
    planOps(*s, gen_, pf_, {});
    s->vStart = nextStartV_;
    s->vSpan = pf_.resident ? lifeS_ : pf_.spanS;
    s->neededLeft = 0;
    if (s->truth) {
      for (int p = 0; p < s->n; ++p) s->neededLeft += s->witness[p] + 1;
    }
    nextStartV_ += sessionGapS_;
    adopt(std::move(s));
  }

  std::uint64_t realDue(double v) const {
    return anchorReal_ + static_cast<std::uint64_t>((v - anchorVirtual_) * 1e9);
  }

  // Emits the next scheduled frame, starting sessions as the schedule
  // reaches them.
  void emitOne(bool saturatedPhase) {
    while (cursors_.empty() || cursors_.top().first >= nextStartV_) {
      startSession();
    }
    auto [v, s] = cursors_.top();
    cursors_.pop();
    vNow_ = std::max(vNow_, v);
    const Op& op = s->ops[s->nextOp];
    Frame f;
    f.genNs = nowNs();
    f.dueNs = saturatedPhase ? 0 : realDue(v);
    f.sess = s;
    f.op = op;
    f.bytes = svc::encodeFrame(payloadOf(*s, op));
    if (!saturatedPhase && f.genNs > f.dueNs) {
      st_.lateMs.add(static_cast<double>(f.genNs - f.dueNs) / 1e6);
    } else if (!saturatedPhase) {
      st_.lateMs.add(0);
    }
    queueBytes_[s->conn] += f.bytes.size();
    ++s->refs;
    queues_[s->conn].push_back(std::move(f));
    if (++s->nextOp < s->ops.size()) cursors_.push({s->due(s->nextOp), s});
  }

  void fillSaturated() {
    for (;;) {
      bool short_ = false;
      for (int c = 0; c < conns_; ++c) short_ = short_ || queueBytes_[c] < kReadBytes;
      if (!short_) return;
      emitOne(true);
    }
  }

  void generateUntil(std::uint64_t horizonNs) {
    while (true) {
      while (cursors_.empty() || cursors_.top().first >= nextStartV_) startSession();
      if (realDue(cursors_.top().first) > horizonNs) return;
      emitOne(false);
    }
  }

  std::uint64_t earliestDue() const {
    std::uint64_t best = UINT64_MAX;
    for (int c = 0; c < conns_; ++c) {
      if (!urgent_[c].empty()) return 0;
      for (const Frame& f : deferred_[c]) {
        if (closeReady(*f.sess)) return 0;
      }
      if (!queues_[c].empty()) best = std::min(best, queues_[c].front().dueNs);
    }
    return best;
  }

  std::size_t pendingFrames() const {
    std::size_t n = 0;
    for (int c = 0; c < conns_; ++c) {
      n += queues_[c].size() + urgent_[c].size() + deferred_[c].size();
    }
    return n;
  }

  // A faulty session closes once the server has every notification (or has
  // detected, after which it stops recovering gaps) and has answered the
  // pump that carried the last of them, so no NACK is outstanding.
  bool closeReady(const Sess& s) const {
    return !s.faults ||
           ((s.undelivered == 0 || s.detectSeen) && s.lastTakenPump < pumpIdx_);
  }

  // Moves one frame into the read chunk (or loses it, if the plan drops it)
  // and updates the client's view of the session.
  void take(Frame&& f, std::string& chunk, std::vector<Frame>& taken) {
    Sess& s = *f.sess;
    s.lastTakenPump = pumpIdx_;
    const bool notif = f.op.type == kEv || f.op.type == kEvb;
    if (notif) {
      for (int j = 0; j < std::max<int>(1, f.op.count); ++j) {
        s.taken[f.op.p][f.op.seq + j] = 1;
      }
    }
    if (f.op.drop && !f.retx) {
      s.dropDue[static_cast<std::uint32_t>(f.op.p) << 16 | f.op.seq] = f.dueNs;
      release(s);
      return;  // lost in transit; the server will NACK it
    }
    chunk += f.bytes;
    if (f.op.dup) chunk += f.bytes;
    taken.push_back(std::move(f));
  }

  // One iteration of the serve loop. Returns the server busy time.
  std::uint64_t iterate(bool fixedRate, bool measure) {
    ++pumpIdx_;
    const std::uint64_t now = nowNs();
    // Frames reach the server at the client's last flush.
    const std::uint64_t flushed =
        fixedRate ? now - (now - phaseStart_) % kFlushNs : now;
    // ---- Client side (not charged to the server): each connection's read
    // chunk, deferred CLOSEs and retransmits first ----
    std::vector<Frame> taken;
    chunks_.resize(static_cast<std::size_t>(conns_));
    for (int c = 0; c < conns_; ++c) {
      std::string& chunk = chunks_[static_cast<std::size_t>(c)];
      chunk.clear();
      auto room = [&] { return chunk.size() < kReadBytes; };
      for (auto it = deferred_[c].begin(); it != deferred_[c].end() && room();) {
        if (closeReady(*it->sess)) {
          take(std::move(*it), chunk, taken);
          it = deferred_[c].erase(it);
        } else {
          ++it;
        }
      }
      while (!urgent_[c].empty() && room()) {
        take(std::move(urgent_[c].front()), chunk, taken);
        urgent_[c].pop_front();
      }
      auto& q = queues_[c];
      while (!q.empty() && q.front().dueNs <= flushed && room() &&
             chunk.size() + q.front().bytes.size() <= kReadBytes) {
        Frame f = std::move(q.front());
        q.pop_front();
        queueBytes_[c] -= f.bytes.size();
        if (f.op.type == kClose && !closeReady(*f.sess)) {
          deferred_[c].push_back(std::move(f));
          continue;
        }
        take(std::move(f), chunk, taken);
      }
      if (fixedRate && measure) {
        std::size_t behind = 0;
        for (const Frame& f : q) {
          if (f.dueNs > flushed) break;
          ++behind;
        }
        st_.backlog.add(static_cast<double>(behind));
      }
    }

    std::vector<svc::ReplicatedCmd> batch;
    std::vector<svc::Response> out;
    std::vector<std::string> recs;
    std::uint64_t t0 = 0, t1 = 0;
    {
      Scope loop(spans_, "loop", pumpIdx_);
      t0 = nowNs();
      {
        Scope s(spans_, "service.frame.decode", pumpIdx_);
        for (int c = 0; c < conns_; ++c) {
          decoders_[c].feed(chunks_[static_cast<std::size_t>(c)]);
          while (auto p = decoders_[c].pop()) batch.push_back({c + 1, std::move(*p)});
        }
      }
      {
        Scope s(spans_, "service.replica.capture", pumpIdx_);
        recs = svc::capturePumpRecord(engine_->stats().pumps, batch);
      }
      {
        Scope s(spans_, "service.engine.submit", pumpIdx_);
        for (svc::ReplicatedCmd& cmd : batch) {
          engine_->submit(std::move(cmd.payload), cmd.origin);
        }
      }
      std::uint64_t p0 = 0;
      {
        Scope s(spans_, "service.engine.pump", pumpIdx_);
        p0 = nowNs();
        engine_->pump(out, nullptr);
      }
      const std::uint64_t p1 = nowNs();
      if (++sinceStore_ >= pf_.storeEvery) {
        sinceStore_ = 0;
        Scope s(spans_, "service.manifest_log.store", pumpIdx_);
        const std::uint64_t s0 = nowNs();
        const svc::CheckpointCapture cap = log_.store(*engine_);
        if (measure && fixedRate) {
          const double ms = static_cast<double>(nowNs() - s0) / 1e6;
          st_.storeMs.add(ms);
          window(st_.storeWin, s0).add(ms);
        }
        if (measure) {
          st_.storeBytes += cap.text.size();
          ++st_.stores;
        }
        if (recording_) storePumps_.push_back(records_.size());
      }
      {
        Scope s(spans_, "service.frame.encode", pumpIdx_);
        for (std::string& w : wire_) w.clear();
        wire_.resize(static_cast<std::size_t>(conns_) + 1);
        for (const svc::Response& r : out) {
          wire_[static_cast<std::size_t>(r.origin)] += svc::encodeFrame(r.payload);
        }
      }
      t1 = nowNs();
      if (measure) {
        if (fixedRate) st_.pumpMs.add(static_cast<double>(p1 - p0) / 1e6);
        st_.commands += batch.size();
        st_.responses += out.size();
        ++st_.pumps;
        for (const std::string& r : recs) st_.recordBytes += r.size();
      }
    }
    if (recording_) {
      records_.push_back(std::move(recs));
      std::string all;
      for (const std::string& w : wire_) all += w;
      wireLog_.push_back(std::move(all));
    }

    // ---- Client side again: what the server received and answered ----
    double notifs = 0;
    for (Frame& f : taken) {
      Sess& s = *f.sess;
      const int cnt =
          f.op.type == kEv || f.op.type == kEvb ? std::max<int>(1, f.op.count) : 0;
      for (int j = 0; j < cnt; ++j) {
        const int seq = f.op.seq + j;
        if (s.got[f.op.p][seq]) continue;  // duplicate retransmit
        s.got[f.op.p][seq] = 1;
        --s.undelivered;
        std::uint64_t due = f.dueNs;
        if (f.retx) {
          ++st_.retxUseful;
          const auto it = s.dropDue.find(static_cast<std::uint32_t>(f.op.p) << 16 | seq);
          if (it != s.dropDue.end()) due = it->second;
        }
        if (s.truth && seq <= s.witness[f.op.p]) {
          --s.neededLeft;
          s.neededDue = std::max(s.neededDue, f.dueNs);
        }
        notifs += 1;
        if (fixedRate && measure && due >= phaseStart_) {
          const double ms = static_cast<double>(t1 - due) / 1e6;
          window(st_.latencyWin, t1).add(ms);
        }
      }
      release(s);
    }
    if (measure) {
      st_.notifs += static_cast<std::uint64_t>(notifs);
      if (!fixedRate) {
        st_.satNotifs += notifs;
        st_.satBusyNs += static_cast<double>(t1 - t0);
        const std::size_t w = (t1 - phaseStart_) / 500'000'000;
        if (st_.satWin.size() <= w) st_.satWin.resize(w + 1);
        st_.satWin[w].first += notifs;
        st_.satWin[w].second += static_cast<double>(t1 - t0);
      } else {
        st_.fixedBusyNs += static_cast<double>(t1 - t0);
      }
    }
    for (int c = 1; c <= conns_; ++c) {
      svc::FrameDecoder dec;
      dec.feed(wire_[static_cast<std::size_t>(c)]);
      while (auto p = dec.pop()) handle(*p, t1, fixedRate && measure, false);
    }
    return t1 - t0;
  }

  // Checks one server response against the ground truth.
  void handle(const std::string& payload, std::uint64_t at, bool measure,
              bool draining) {
    std::istringstream is(payload);
    std::string verb, tenant, id;
    is >> verb;
    if (verb == "OK" || verb == "SYNC" || verb == "STATS") return;
    is >> tenant >> id;
    const auto it = byKey_.find(tenant + " " + id);
    if (verb == "ERR" || verb == "SHED" || verb == "DEGRADE" || it == byKey_.end()) {
      ++st_.failed;
      res_.fail("unexpected response: " + payload.substr(0, 120));
      return;
    }
    Sess& s = *it->second;
    if (verb == "DETECT") {
      if (!s.truth) {
        ++st_.failed;
        res_.fail("session " + s.key + ": DETECT but ground truth has no detection");
      } else if (s.neededLeft > 0) {
        ++st_.failed;
        res_.fail("session " + s.key + ": DETECT before its witness arrived");
      } else if (measure && s.neededDue >= phaseStart_) {
        const double ms = static_cast<double>(at - s.neededDue) / 1e6;
        window(st_.detectWin, at).add(ms);
      }
      s.detectSeen = true;
    } else if (verb == "NACK") {
      int p = 0;
      std::uint64_t lo = 0, hi = 0;
      is >> p >> lo >> hi;
      for (std::uint64_t seq = lo; seq <= hi && seq < s.taken[p].size(); ++seq) {
        if (!s.taken[p][seq]) continue;  // not sent yet: will arrive anyway
        Frame f;
        f.dueNs = at;
        f.sess = &s;
        f.op = {kEv, static_cast<std::uint8_t>(p), static_cast<std::uint16_t>(seq),
                1, false, false};
        f.retx = true;
        f.bytes = svc::encodeFrame(payloadOf(s, f.op));
        ++s.refs;
        urgent_[s.conn].push_back(std::move(f));
        ++st_.retx;
      }
    } else if (verb == "VERDICT") {
      std::string word;
      is >> word;
      ++st_.attempted;
      // Drained sessions are still mid-stream: they may be undecided, or
      // degraded when a gap was still being recovered.
      const bool complete = s.undelivered == 0;
      const bool canDetect = s.truth && s.neededLeft == 0;
      const bool ok = word == "detected"       ? s.truth
                      : word == "not-detected" ? !s.truth && complete
                      : word == "undecided"    ? draining && !canDetect
                      : word == "degraded"     ? draining && !canDetect && hasGap(s)
                                               : false;
      if (!ok) {
        ++st_.failed;
        res_.fail("session " + s.key + ": VERDICT " + word + ", ground truth " +
                  (s.truth ? "detected" : "not detected"));
      }
      byKey_.erase(it);
      s.closed = true;
      if (s.refs == 0) owned_.erase(&s);
    } else {
      ++st_.failed;
      res_.fail("unexpected response: " + payload.substr(0, 120));
    }
  }

  Samples& window(std::vector<Samples>& wins, std::uint64_t at) {
    const std::size_t w = (at - phaseStart_) / kWindowNs;
    if (wins.size() <= w) wins.resize(w + 1);
    return wins[w];
  }

  // Some notification was sent (or lost) while an earlier one of the same
  // stream has not reached the server.
  static bool hasGap(const Sess& s) {
    for (int p = 0; p < s.n; ++p) {
      int top = -1;
      for (int q = 0; q < s.count[p]; ++q) {
        if (s.taken[p][q]) top = q;
      }
      for (int q = 0; q < top; ++q) {
        if (!s.got[p][q]) return true;
      }
    }
    return false;
  }

  // Drops one queued-frame reference; a closed session with none left is
  // freed.
  void release(Sess& s) {
    if (--s.refs == 0 && s.closed) owned_.erase(&s);
  }

  const Profile& pf_;
  std::unique_ptr<svc::Engine> engine_;
  svc::ManifestLog& log_;
  Rand gen_;
  SpanLog& spans_;
  Result& res_;
  int conns_ = 1;
  std::vector<std::deque<Frame>> queues_, urgent_;
  std::vector<std::vector<Frame>> deferred_;
  std::vector<svc::FrameDecoder> decoders_;
  std::size_t queueBytes_[kTenants] = {};
  std::unordered_map<const Sess*, std::unique_ptr<Sess>> owned_;
  std::unordered_map<std::string, Sess*> byKey_;
  using Cursor = std::pair<double, Sess*>;
  struct Later {
    bool operator()(const Cursor& a, const Cursor& b) const { return a.first > b.first; }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, Later> cursors_;
  double sessionGapS_ = 0, lifeS_ = 0, nextStartV_ = 0, vNow_ = 0;
  double anchorVirtual_ = 0;
  std::uint64_t anchorReal_ = 0;
  std::uint64_t phaseStart_ = 0;
  std::uint64_t nextSessionIdx_ = 1'000'000;
  std::uint64_t pumpIdx_ = 0;
  int sinceStore_ = 0;
  Stats st_;
  bool recording_ = false;
  std::vector<std::vector<std::string>> records_;
  std::vector<std::string> wireLog_;
  std::vector<std::uint64_t> storePumps_;
  std::vector<std::string> wire_;
  std::vector<std::string> chunks_;  // per connection, this iteration's read

 public:
  const std::vector<std::string>& wireLog() const { return wireLog_; }
};

svc::EngineOptions engineOptions(const Profile& pf) {
  svc::EngineOptions eo;
  eo.session.enableSlice = pf.resident;
  return eo;
}

// Resident warm start: opens the restored sessions on a generator engine,
// feeds each a random prefix of its streams, and serializes the manifest.
struct WarmStart {
  std::string manifest;
  std::vector<std::unique_ptr<Sess>> sessions;
};

WarmStart warmStart(Rand& r, const Profile& pf, int conns) {
  WarmStart w;
  svc::Engine gen(engineOptions(pf));
  std::vector<svc::Response> sink;
  for (int i = 0; i < pf.restored; ++i) {
    auto s = makeSession(r, pf, static_cast<std::uint64_t>(i), conns);
    s->faults = true;
    std::vector<int> prefix(s->n);
    const int cut = r.range(0, pf.notes * 9 / 10);
    gen.submit("OPEN " + s->key + " " + std::to_string(s->n), s->conn + 1);
    for (int p = 0; p < s->n; ++p) {
      prefix[p] = std::max(0, std::min(s->count[p], cut + r.range(-3, 3)));
      for (int seq = 0; seq < prefix[p]; ++seq) {
        gen.submit(payloadOf(*s, {kEv, static_cast<std::uint8_t>(p),
                                  static_cast<std::uint16_t>(seq), 1, false, false}),
                   s->conn + 1);
        s->taken[p][seq] = s->got[p][seq] = 1;
        --s->undelivered;
      }
    }
    if (s->truth) {
      for (int p = 0; p < s->n; ++p) {
        s->neededLeft += std::max(0, s->witness[p] + 1 - prefix[p]);
      }
      s->detectSeen = s->neededLeft == 0;  // detected before the manifest
    }
    planOps(*s, r, pf, prefix);
    w.sessions.push_back(std::move(s));
    if (i % 64 == 63) {
      gen.pump(sink);
      sink.clear();
    }
  }
  gen.pump(sink);
  std::ostringstream os;
  gen.writeManifest(os);
  w.manifest = os.str();
  return w;
}

// Replays the recorded pump batches on fresh engines, inline and pooled:
// the sequential ≡ pooled contract (identical response bytes, also against
// the live run) and the single-thread baseline for par.pump_speedup.
double replay(const Profile& pf, const std::string& manifest,
              const std::vector<std::vector<std::string>>& records,
              const std::vector<std::uint64_t>& storePumps,
              const std::vector<std::string>& live, gpd::par::Pool& pool,
              Result& res) {
  double ns[2] = {0, 0};
  std::vector<std::string> wire[2];
  for (int mode = 0; mode < 2; ++mode) {
    auto engine = pf.resident
                      ? svc::Engine::restoreManifestText(manifest, engineOptions(pf))
                      : std::make_unique<svc::Engine>(engineOptions(pf));
    std::size_t nextStore = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      for (std::size_t k = 1; k < records[i].size(); ++k) {
        const std::string& rec = records[i][k];  // "RCMD <origin>\n<payload>"
        const std::size_t nl = rec.find('\n');
        engine->submit(rec.substr(nl + 1), std::stoi(rec.substr(5, nl - 5)));
      }
      std::vector<svc::Response> out;
      const std::uint64_t t0 = nowNs();
      engine->pump(out, mode == 0 ? nullptr : &pool);
      ns[mode] += static_cast<double>(nowNs() - t0);
      if (nextStore < storePumps.size() && storePumps[nextStore] == i) {
        engine->captureCheckpoint(true);
        ++nextStore;
      }
      std::string all;
      std::vector<std::string> byOrigin(static_cast<std::size_t>(kTenants) + 1);
      for (const svc::Response& r : out) {
        byOrigin[static_cast<std::size_t>(r.origin)] += svc::encodeFrame(r.payload);
      }
      for (const std::string& b : byOrigin) all += b;
      wire[mode].push_back(std::move(all));
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (wire[0][i] != wire[1][i]) {
      res.fail("pump " + std::to_string(i) + ": pooled replay responses differ from inline");
      break;
    }
    if (i < live.size() && wire[0][i] != live[i]) {
      res.fail("pump " + std::to_string(i) + ": replayed responses differ from the live run");
      break;
    }
  }
  return ns[1] > 0 ? ns[0] / ns[1] : 0;
}

}  // namespace

Result runOnline(const RunOptions& o) {
  Result res;
  const Profile pf = profileFor(o.workload);
  const int conns = std::min(o.threads, kTenants);
  res.note("rate_per_s", std::to_string(pf.ratePerS));
  res.note("slo_ms", std::to_string(pf.sloMs));
  Rand r(o.seed);
  WarmStart warm;
  if (pf.resident) warm = warmStart(r, pf, conns);
  const std::uint64_t genSeed = r.next();

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(o.workDir) /
                       ("gpdd-" + std::to_string(::getpid()));
  int passNo = 0;

  // Set-up of one pass: Engine construction, for the resident workload the
  // warm-start restore through the ManifestLog (gpdd --recover), and one
  // pump of a fixed warm-up batch, which pays the engine's lazy first-use
  // costs as the offline warm-up query does. Repeated; the median is
  // reported.
  std::vector<std::pair<std::string, int>> warmUp;  // payload, origin
  {
    Rand wr(0);  // the same batch for every seed
    for (std::uint64_t i = 0; i < 256; ++i) {
      // Ids from 900000 on: clear of the restored sessions and of the
      // harness's (1000000 on).
      auto s = makeSession(wr, pf, 900'000 + i, conns);
      planOps(*s, wr, pf, {});
      for (const Op& op : s->ops) warmUp.emplace_back(payloadOf(*s, op), s->conn + 1);
    }
  }
  Samples setup, restoreMs;
  struct Ready {
    std::unique_ptr<svc::ManifestLog> log;
    std::unique_ptr<svc::Engine> engine;
  };
  auto prepare = [&](bool count) {
    const fs::path pdir = dir / ("pass" + std::to_string(passNo++));
    fs::create_directories(pdir);
    const std::string path = (pdir / "manifest").string();
    if (pf.resident) std::ofstream(path, std::ios::binary) << warm.manifest;
    Ready ready;
    for (int rep = 0; rep < (count ? 15 : 1); ++rep) {
      ready = Ready{};
      const std::uint64_t t0 = nowNs();
      ready.log = std::make_unique<svc::ManifestLog>(path, pf.fullEvery);
      const std::uint64_t r0 = nowNs();
      ready.engine = pf.resident ? ready.log->recover(engineOptions(pf))
                                 : std::make_unique<svc::Engine>(engineOptions(pf));
      const std::uint64_t r1 = nowNs();
      for (const auto& [payload, origin] : warmUp) ready.engine->submit(payload, origin);
      std::vector<svc::Response> sink;
      ready.engine->pump(sink, nullptr);
      const std::uint64_t t1 = nowNs();
      if (count) {
        setup.add(static_cast<double>(t1 - t0) / 1e9);
        if (pf.resident) restoreMs.add(static_cast<double>(r1 - r0) / 1e6);
      }
    }
    return ready;
  };
  auto restoredCopy = [&] {
    std::vector<std::unique_ptr<Sess>> out;
    for (const auto& s : warm.sessions) out.push_back(std::make_unique<Sess>(*s));
    return out;
  };

  const double sat = o.seconds * 0.4, fixed = o.seconds * 0.6;
  auto runPass = [&](double scale, SpanLog& spans, bool recordBatches, bool count) {
    Ready ready = prepare(count);
    auto h = std::make_unique<Harness>(o, pf, std::move(ready.engine),
                                       *ready.log, restoredCopy(), Rand(genSeed), spans, res);
    h->record(recordBatches);
    h->saturated(0.3, false);  // warm-up
    h->saturated(sat * scale, true);
    h->fixedRate(fixed * scale);
    return std::make_pair(std::move(h), std::move(ready));
  };

  SpanLog off(false);
  auto [h, ready] = runPass(o.trace ? 0.5 : 1.0, off, false, true);
  std::map<std::string, double>& L = res.layers;
  std::unique_ptr<Harness> traced;
  Ready tracedReady;
  SpanLog spans(true);
  if (o.trace) {
    auto pass = runPass(0.5, spans, true, false);
    traced = std::move(pass.first);
    tracedReady = std::move(pass.second);
    const Stats& a = h->stats();
    const Stats& b = traced->stats();
    L["trace.overhead_pct"] =
        a.satNotifs > 0 && b.satNotifs > 0
            ? ((b.satBusyNs / b.satNotifs) / (a.satBusyNs / a.satNotifs) - 1) * 100
            : 0;
    const double cov = spans.coverage();
    L["trace.coverage"] = cov;
    if (cov < 0.9 || cov > 1.1) {
      res.fail("stage coverage: decode+capture+submit+pump+store+encode spans cover " +
               std::to_string(cov) + " of loop wall time");
    }
    // Self time per layer: the span's duration minus its children's.
    for (const auto& [name, self] : spans.selfTimes()) {
      res.addExtra("self_ms." + name, "ms", self.first / 1e6);
    }
    spans.writeChromeTrace(o.workDir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".trace.json");
    res.note("trace_file", o.workload + "-seed" + std::to_string(o.seed) + ".trace.json");
  }

  Harness& m = traced ? *traced : *h;
  Stats& st = m.stats();
  const svc::SliceStats sl = m.engine().sliceStats();
  const double estMib = static_cast<double>(m.engine().estimatedBytes()) / (1 << 20);
  if (traced) {
    std::map<std::string, Samples> dur;
    for (const Span& s : spans.spans()) {
      dur[s.name].add(static_cast<double>(s.endNs - s.startNs));
    }
    const double cmds = static_cast<double>(std::max<std::uint64_t>(1, st.commands));
    const double pumps = static_cast<double>(std::max<std::uint64_t>(1, st.pumps));
    L["service.frame.decode_ns"] = dur["service.frame.decode"].sum() / cmds;
    L["service.frame.encode_ns"] =
        dur["service.frame.encode"].sum() /
        static_cast<double>(std::max<std::uint64_t>(1, st.responses));
    L["service.replica.capture_ns"] = dur["service.replica.capture"].sum() / cmds;
    L["service.replica.bytes_per_pump"] = static_cast<double>(st.recordBytes) / pumps;
    L["service.engine.submit_ns"] = dur["service.engine.submit"].sum() / cmds;
    L["service.engine.pump_ms_p50"] = st.pumpMs.median();
    L["service.engine.pump_ms_p99"] = st.pumpMs.quantile(0.99);
    L["service.engine.frames_per_pump"] = cmds / pumps;
    L["service.engine.pump_us_per_frame"] = dur["service.engine.pump"].sum() / 1e3 / cmds;
    L["service.engine.busy_share"] =
        st.fixedWallNs > 0 ? st.fixedBusyNs / st.fixedWallNs : 0;
    L["service.manifest_log.store_ms_p50"] = st.storeMs.median();
    L["service.manifest_log.store_ms_p99"] = st.storeMs.quantile(0.99);
    L["service.manifest_log.bytes_per_store"] =
        st.stores ? static_cast<double>(st.storeBytes) / static_cast<double>(st.stores) : 0;
    L["service.engine.restore_ms"] = restoreMs.median();
    L["service.engine.est_mib"] = estMib;
    L["monitor.nacks_per_knotif"] =
        st.notifs ? static_cast<double>(st.nacks) * 1e3 / static_cast<double>(st.notifs) : 0;
    L["monitor.retransmit_useful_ratio"] =
        st.retx ? static_cast<double>(st.retxUseful) / static_cast<double>(st.retx) : 0;
    L["monitor.slice_resolved_ratio"] =
        sl.notifications ? static_cast<double>(sl.resolved) / static_cast<double>(sl.notifications) : 0;
    L["loadgen.backlog_frames_p99"] = st.backlog.quantile(0.99);
    L["loadgen.late_ms_p99"] = st.lateMs.quantile(0.99);
    gpd::par::Pool pool(o.threads);
    L["par.pump_speedup"] = replay(pf, warm.manifest, m.records(), m.storePumps(),
                                   m.wireLog(), pool, res);
  }

  // Correctness over every pass: drain the open sessions and check them.
  for (Harness* x : {h.get(), traced.get()}) {
    if (x == nullptr) continue;
    x->drainAndCheck();
    res.attempted += x->stats().attempted + x->stats().notifs;
    res.failed += x->stats().failed;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);

  const Stats& e2e = h->stats();
  // Percentiles per window: the fixed-rate phase is cut into groups of
  // consecutive quarter-second windows, each group the shortest that holds
  // ten samples beyond its percentile (20 for the p50, 1000 for the
  // notification p99, 40 for the detection p75; DETECTs are a few dozen a
  // second on gpdd-resident) and two checkpoint stores, so every group pays
  // for the stores. Noise from other tenants of the machine only ever slows
  // a group down, so the quieter quarter of the groups is reported (their
  // Harrell–Davis lower quartile). Throughput is every saturated-phase
  // notification over the server's busy time in that phase; its half-second
  // windows are kept as the distribution in the detail record.
  auto overWindows = [&e2e](const std::vector<Samples>& wins, double q,
                           std::size_t need) {
    Samples per, merged;
    std::size_t stores = 0;
    for (std::size_t w = 0; w < wins.size(); ++w) {
      merged.addAll(wins[w]);
      if (w < e2e.storeWin.size()) stores += e2e.storeWin[w].size();
      if (merged.size() >= need && stores >= 2) {
        per.add(merged.quantile(q));
        merged = Samples{};
        stores = 0;
      }
    }
    return per;
  };
  const Samples latP50 = overWindows(e2e.latencyWin, 0.5, 20);
  const Samples detP50 = overWindows(e2e.detectWin, 0.5, 20);
  const Samples latTail = overWindows(e2e.latencyWin, 0.99, 1000);
  const Samples detTail = overWindows(e2e.detectWin, 0.75, 40);
  Samples satRate;
  for (const auto& [notifs, busy] : e2e.satWin) {
    if (busy > 0) satRate.add(notifs / (busy / 1e9));
  }
  if (latTail.empty() || detTail.empty() || satRate.empty()) {
    res.fail("the measured phases hold too few notifications or detections "
             "for the percentiles; run with more --seconds");
    return res;
  }
  // Share of fixed-rate notifications over the latency limit.
  std::size_t over = 0, all = 0;
  for (const Samples& w : e2e.latencyWin) {
    over += w.countAbove(pf.sloMs);
    all += w.size();
  }
  const double miss = static_cast<double>(over) / static_cast<double>(all);
  L["slo_miss_ratio"] = miss;
  res.add("setup_s", "s", setup.median(), &setup);
  res.add("rss_peak_mib", "MiB", peakRssMib());
  res.add("latency_ms_p50", "ms", latP50.hdQuantile(0.25), &latP50);
  res.add("latency_ms_tail", "ms", latTail.hdQuantile(0.25), &latTail);
  res.add("throughput_per_s", "1/s", e2e.satNotifs / (e2e.satBusyNs / 1e9), &satRate);
  res.add("detect_ms_p50", "ms", detP50.hdQuantile(0.25), &detP50);
  res.add("detect_ms_tail", "ms", detTail.hdQuantile(0.25), &detTail);
  res.note("percentiles",
           "p50, notification p99 and detection p75 per group of 0.25 s "
           "windows of the fixed-rate phase holding ten samples beyond the "
           "percentile and two checkpoint stores, Harrell-Davis lower "
           "quartile of the groups; throughput: saturated-phase "
           "notifications over server busy time");
  res.addExtra("slo_miss_ratio", "ratio", miss);
  res.addExtra("fail_ratio", "ratio",
               static_cast<double>(res.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, res.attempted)));
  return res;
}

}  // namespace perfbench
