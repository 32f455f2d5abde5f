#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

namespace pembench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - kProcessStart)
      .count();
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// When the round's first sampled window started.  The last frame of
// the first window that sent any bytes marks that window's end; its
// runtime_seconds back from there is its start, and any no-market
// windows before it (no frames) are backed out by their runtimes too.
double FirstWindowStart(const Round& r) {
  const std::vector<pem::core::WindowRecord>& ws = r.sim.windows;
  const std::vector<size_t> bounds = SplitByWindow(r.frames, ws);
  double before = 0.0;
  for (size_t i = 0; i < ws.size(); ++i) {
    if (ws[i].bus_bytes > 0 && bounds[i + 1] > bounds[i]) {
      const double end =
          static_cast<double>(r.frames[bounds[i + 1] - 1].t_ns) * 1e-9;
      return end - ws[i].runtime_seconds - before;
    }
    before += ws[i].runtime_seconds;
  }
  // A day without a single frame: back the whole online time out of
  // the call's end.
  return r.end_s - before;
}

}  // namespace

double SinceStart() { return static_cast<double>(NowNs()) * 1e-9; }

CpuTimes CpuNow() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return {Seconds(self.ru_utime) + Seconds(self.ru_stime),
          Seconds(children.ru_utime) + Seconds(children.ru_stime)};
}

double PeakRssMiB() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

Round RunRound(const pem::grid::CommunityTrace& trace,
               const pem::core::SimulationConfig& config,
               std::vector<Frame> frames) {
  Round r;
  r.frames = std::move(frames);
  r.frames.clear();
  r.frames.reserve(1 << 16);
  pem::core::SimulationConfig cfg = config;
  // Backends call the observer from one thread at a time (under their
  // lock, or on the relay router thread), so no locking here.
  cfg.bus_observer = [&frames = r.frames](const pem::net::Message& m) {
    frames.push_back(TapFrame(m, NowNs()));
  };
  const CpuTimes cpu0 = CpuNow();
  r.call_s = SinceStart();
  try {
    r.sim = pem::core::RunSimulation(trace, cfg);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.end_s = SinceStart();
  const CpuTimes cpu1 = CpuNow();
  r.cpu = {cpu1.self_s - cpu0.self_s, cpu1.children_s - cpu0.children_s};
  r.first_window_s = r.error.empty() ? FirstWindowStart(r) : r.call_s;
  return r;
}

Oracle BuildOracle(const pem::grid::CommunityTrace& trace, const Workload& w) {
  const pem::core::SimulationConfig cfg = OracleConfig(w);
  Oracle o;
  o.records = pem::core::RunSimulation(trace, cfg).windows;
  std::vector<pem::grid::Battery> batteries = trace.MakeBatteries();
  std::vector<pem::market::AgentWindowInput> inputs(
      static_cast<size_t>(trace.num_homes()));
  for (int win = 0; win < trace.windows_per_day; ++win) {
    for (int h = 0; h < trace.num_homes(); ++h) {
      inputs[static_cast<size_t>(h)] = {
          trace.homes[static_cast<size_t>(h)].params,
          trace.ResolveWindow(h, win, batteries)};
    }
    if (win < cfg.window_offset || (win - cfg.window_offset) % cfg.window_stride)
      continue;
    o.outcomes.push_back(pem::market::ClearMarket(inputs, cfg.pem.market));
  }
  return o;
}

void Tally::Add(const Failures& window_failures) {
  ++attempted;
  if (window_failures.empty()) return;
  ++failed;
  for (const std::string& line : window_failures) {
    if (lines.size() < 20) lines.push_back(line);
  }
}

std::vector<Failures> CheckRound(const Workload& w,
                                 const pem::core::SimulationConfig& cfg,
                                 const Round& round, const Oracle& oracle,
                                 const pem::core::SimulationResult* twin) {
  const std::vector<pem::core::WindowRecord>& ws = round.sim.windows;
  std::vector<Failures> out(oracle.records.size());
  if (!round.error.empty() || ws.size() != out.size()) {
    const std::string why =
        round.error.empty()
            ? "round ran " + std::to_string(ws.size()) + " of " +
                  std::to_string(out.size()) + " windows"
            : "round threw: " + round.error;
    for (Failures& f : out) f.push_back(why);
    return out;
  }
  const std::vector<size_t> bounds = SplitByWindow(round.frames, ws);
  for (size_t i = 0; i < ws.size(); ++i) {
    const pem::core::WindowRecord& rec = ws[i];
    Failures& f = out[i];
    const std::span<const Frame> frames(round.frames.data() + bounds[i],
                                        bounds[i + 1] - bounds[i]);
    uint64_t tapped = 0;
    for (const Frame& fr : frames) tapped += fr.framed_bytes;
    CheckBytes(tapped, rec.bus_bytes, f);
    CheckOracle(rec, oracle.records[i], f);
    CheckPriceRange(rec, cfg.pem.market, f);
    CheckRationality(rec, f);
    const std::vector<pem::protocol::Trade> trades = WireTrades(frames, f);
    CheckTrades(trades, rec, oracle.outcomes[i], f);
    if (twin != nullptr) {
      if (i < twin->windows.size()) {
        CheckTwin(rec, twin->windows[i], f);
      } else {
        f.push_back("twin ran fewer windows");
      }
    }
    if (w.audit) CheckAudited(rec, f);
  }
  return out;
}

bool IsMarket(const pem::core::WindowRecord& rec) {
  return rec.type != pem::market::MarketType::kNoMarket;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

}  // namespace pembench
