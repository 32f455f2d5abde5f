// pembench: the PEM engine's end-to-end and per-layer benchmark.
//
//   pembench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 (timed run): runs the workload's sampled day through
//   core::RunSimulation in whole rounds until --seconds have been
//   measured (at least one round), checks every executed window, and
//   prints the end-to-end metrics, each timing the best of the rounds.
// --trace 1 (traced run): one round as above plus the traced replica,
//   the crypto primitive timings and the frame timing; prints the
//   per-layer metrics and writes DIR/<workload>-seed<N>.jsonl and
//   DIR/<workload>-seed<N>.trace.json (Chrome trace-event format).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count executed windows.  Diagnostics go to
// standard error.
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "layers.h"
#include "protocol/context.h"
#include "replica.h"
#include "workloads.h"

namespace {

using pembench::Failures;
using pembench::Round;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".bench_out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pembench: %s\nusage: pembench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\nworkloads:",
               why);
  for (const std::string& n : pembench::WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

// Metrics in print order: name -> (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void PrintResult(bool correct, const pembench::Tally& tally,
                 const Metrics& metrics) {
  for (const std::string& line : tally.lines) {
    std::fprintf(stderr, "FAILED %s\n", line.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<double> MarketRuntimes(const pem::core::SimulationResult& sim) {
  std::vector<double> out;
  for (const pem::core::WindowRecord& rec : sim.windows) {
    if (pembench::IsMarket(rec)) out.push_back(rec.runtime_seconds);
  }
  return out;
}

// The serial in-process twin of a forked workload (null otherwise).
std::unique_ptr<pem::core::SimulationResult> RunTwin(
    const pembench::Workload& w, const pem::grid::CommunityTrace& trace,
    uint64_t seed) {
  if (!w.forked()) return nullptr;
  auto twin = std::make_unique<pem::core::SimulationResult>();
  try {
    *twin = pem::core::RunSimulation(trace, pembench::SerialTwin(w, seed));
  } catch (const std::exception& e) {
    // An empty twin fails every window's parity check.
    std::fprintf(stderr, "serial twin threw: %s\n", e.what());
    twin->windows.clear();
  }
  return twin;
}

int TimedRun(const Args& args, const pembench::Workload& w,
             const pem::grid::CommunityTrace& trace) {
  const pem::core::SimulationConfig cfg = pembench::MakeConfig(w, args.seed);
  // Every round runs the same day with the same seed, so rounds are
  // identical work.  Each round is checked as soon as it ends and only
  // its figures are kept; its frame buffer is reused by the next one.
  // The oracle and the twin are built after the first round, so that
  // setup_s times one cold set-up from the process's start.
  std::optional<pembench::Oracle> oracle;
  std::unique_ptr<pem::core::SimulationResult> twin;
  pembench::Tally tally;
  std::vector<pembench::Frame> buffer;
  double setup_s = 0.0;
  // Per sampled window, its runtimes over the rounds (market windows).
  std::vector<std::vector<double>> runtimes;
  std::vector<double> days;
  std::vector<double> cpus;
  double bytes = 0.0;
  int market = 0;
  int rounds = 0;
  // Whole rounds while the next one still fits in --seconds of rounds.
  double measured = 0.0;
  for (;;) {
    Round r = pembench::RunRound(trace, cfg, std::move(buffer));
    if (++rounds == 1) {
      setup_s = r.first_window_s;
      oracle = pembench::BuildOracle(trace, w);
      twin = RunTwin(w, trace, args.seed);
    }
    for (const Failures& f :
         pembench::CheckRound(w, cfg, r, *oracle, twin.get())) {
      tally.Add(f);
    }
    const std::vector<pem::core::WindowRecord>& ws = r.sim.windows;
    if (runtimes.size() < ws.size()) runtimes.resize(ws.size());
    std::vector<double> rt;
    for (size_t i = 0; i < ws.size(); ++i) {
      if (!pembench::IsMarket(ws[i])) continue;
      runtimes[i].push_back(ws[i].runtime_seconds);
      rt.push_back(ws[i].runtime_seconds);
    }
    std::fprintf(stderr, "round: day %.3f s, median market window %.4f s\n",
                 r.day_s(), pembench::Median(rt));
    if (r.error.empty() && !ws.empty()) {
      days.push_back(r.day_s());
      cpus.push_back((r.cpu.self_s + r.cpu.children_s) /
                     static_cast<double>(ws.size()));
      bytes += static_cast<double>(r.sim.total_bus_bytes);
      market += static_cast<int>(rt.size());
    }
    buffer = std::move(r.frames);
    if (!r.error.empty()) break;
    const double took = r.end_s - r.call_s;
    measured += took;
    if (measured + took > args.seconds) break;
  }

  int types[3] = {0, 0, 0};
  for (const pem::core::WindowRecord& rec : oracle->records) {
    ++types[static_cast<int>(rec.type)];
  }
  std::fprintf(stderr,
               "%s\n%d round(s); the day has %d general, %d extreme and %d "
               "no-market windows\n",
               w.Describe().c_str(), rounds, types[0], types[1], types[2]);
  // Rounds are identical work, so what varies between them is what
  // else the host runs: neighbours contending for the shared caches
  // slow a round and never speed one up.  Each timing is therefore the
  // best of the rounds: a window's runtime is its fastest round's,
  // window_s the median of those over the day's market windows, and
  // day_s and cpu_s_per_window the fastest round's.
  std::vector<double> per_window;
  for (const std::vector<double>& v : runtimes) {
    if (!v.empty()) per_window.push_back(pembench::Min(v));
  }
  const bool measurable = market > 0;
  Metrics m;
  m.push_back({"setup_s", {setup_s, "s"}});
  m.push_back({"window_s", {pembench::Median(per_window), "s"}});
  m.push_back({"day_s", {pembench::Min(days), "s"}});
  m.push_back({"bytes_per_agent",
               {measurable ? bytes / w.homes / market : 0.0, "B"}});
  m.push_back({"cpu_s_per_window", {pembench::Min(cpus), "s"}});
  m.push_back({"peak_rss_mb", {pembench::PeakRssMiB(), "MiB"}});
  PrintResult(measurable, tally, m);
  return 0;
}

// Chrome trace-event file: the untraced run's windows on track 1, the
// replica's phases on track 2 (timestamps in µs since process start).
void WriteTraceEvents(const std::string& path, const Round& round,
                      const pembench::ReplicaRun& replica) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"RunSimulation\"}},\n"
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 2, \"args\": {\"name\": \"replica phases\"}}");
  const std::vector<size_t> bounds =
      pembench::SplitByWindow(round.frames, round.sim.windows);
  for (size_t i = 0; i < round.sim.windows.size(); ++i) {
    const pem::core::WindowRecord& rec = round.sim.windows[i];
    if (bounds[i + 1] == bounds[i]) continue;
    const double end =
        static_cast<double>(round.frames[bounds[i + 1] - 1].t_ns) * 1e-9;
    std::fprintf(f,
                 ",\n{\"name\": \"window %d (%s)\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 rec.window, pembench::MarketTypeName(rec.type),
                 (end - rec.runtime_seconds) * 1e6, rec.runtime_seconds * 1e6);
  }
  for (const pembench::Span& s : replica.spans) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 2, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"window\": %d}}",
                 s.name.c_str(), s.start_s * 1e6, s.dur_s * 1e6, s.window);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int TracedRun(const Args& args, const pembench::Workload& w,
              const pem::grid::CommunityTrace& trace, double trace_s) {
  const pem::core::SimulationConfig cfg = pembench::MakeConfig(w, args.seed);
  const Round round = pembench::RunRound(trace, cfg);
  const pembench::Oracle oracle = pembench::BuildOracle(trace, w);
  const auto twin = RunTwin(w, trace, args.seed);
  std::vector<Failures> failures =
      pembench::CheckRound(w, cfg, round, oracle, twin.get());

  // The replica must reproduce the run before any layer is reported.
  const pem::core::SimulationConfig replica_cfg =
      w.forked() ? pembench::SerialTwin(w, args.seed) : cfg;
  const pembench::ReplicaRun replica = pembench::RunReplica(trace, replica_cfg);
  bool reproduced = replica.error.empty() && round.error.empty() &&
                    replica.windows.size() == round.sim.windows.size() &&
                    round.sim.windows.size() == failures.size() &&
                    (twin == nullptr ||
                     twin->windows.size() == failures.size());
  if (!replica.error.empty()) {
    std::fprintf(stderr, "replica threw: %s\n", replica.error.c_str());
  }
  if (reproduced) {
    for (size_t i = 0; i < failures.size(); ++i) {
      const pem::core::WindowRecord& rec = round.sim.windows[i];
      const pembench::ReplicaWindow& rw = replica.windows[i];
      const size_t before = failures[i].size();
      pembench::CheckReplica(rec, rw.outcome, failures[i]);
      if (failures[i].size() != before) reproduced = false;
      pembench::CheckTrades(rw.trades, rec, oracle.outcomes[i], failures[i]);
    }
  } else {
    for (Failures& f : failures) f.push_back("replica did not run the day");
  }
  pembench::Tally tally;
  for (const Failures& f : failures) tally.Add(f);
  if (!reproduced) {
    PrintResult(false, tally, {});
    return 0;
  }

  // core.*: the untraced run.
  const std::vector<pem::core::WindowRecord>& ws = round.sim.windows;
  const double n_windows = static_cast<double>(ws.size());
  const size_t market = MarketRuntimes(round.sim).size();
  const double per_market = market > 0 ? 1.0 / static_cast<double>(market) : 0.0;
  double online = 0.0;
  for (const pem::core::WindowRecord& rec : ws) online += rec.runtime_seconds;
  const double window_s = pembench::Median(MarketRuntimes(round.sim));
  // The replica runs in-process; a forked run's in-process counterpart
  // is its serial twin, so tracing overhead compares against that.
  const pem::core::SimulationResult& same_engine =
      twin != nullptr ? *twin : round.sim;
  std::vector<double> replica_market;
  double audit = 0, coalitions = 0, eval = 0, pricing = 0, distribution = 0;
  double refill = 0, keygens = 0, taken = 0, replica_online = 0;
  for (size_t i = 0; i < ws.size(); ++i) {
    const pembench::ReplicaWindow& rw = replica.windows[i];
    refill += rw.refill_s;
    keygens += rw.keygens;
    taken += static_cast<double>(rw.pool_factors_taken);
    if (!pembench::IsMarket(ws[i])) continue;
    replica_market.push_back(rw.window_s);
    replica_online += rw.window_s;
    audit += rw.audit_s;
    coalitions += rw.coalitions_s;
    eval += rw.market_eval_s;
    pricing += rw.pricing_s;
    distribution += rw.distribution_s;
  }

  // net.*: per-tag frames and bytes from the untraced run's tap.
  std::map<std::string, std::pair<double, double>> tags;
  for (const std::string& t : pembench::TagNames()) tags[t] = {0.0, 0.0};
  double ring = 0;
  for (const pembench::Frame& f : round.frames) {
    auto& [frames, bytes] = tags[pembench::TagName(f.type)];
    frames += 1;
    bytes += f.framed_bytes;
    if (f.type == pem::protocol::kMsgRingHop ||
        f.type == pem::protocol::kMsgRingFinal) {
      ring += 1;
    }
  }
  double forked_overhead = 0.0;
  if (twin != nullptr) {
    forked_overhead = window_s - pembench::Median(MarketRuntimes(*twin));
  }

  const pembench::CryptoTimes ct =
      pembench::TimeCrypto(w.key_bits, cfg.pem.compare, args.seed);
  const size_t frame_bytes = static_cast<size_t>(w.key_bits) / 4 + 16;
  const double frame_s = pembench::TimeFrame(w.policy, frame_bytes);

  Metrics m;
  m.push_back({"grid.trace_s", {trace_s, "s"}});
  m.push_back({"core.window_s", {window_s, "s"}});
  m.push_back({"core.idle_s", {(round.day_s() - online) / n_windows, "s"}});
  m.push_back({"core.parent_cpu_s", {round.cpu.self_s / n_windows, "s"}});
  m.push_back({"core.child_cpu_s", {round.cpu.children_s / n_windows, "s"}});
  m.push_back({"core.tracing_overhead_s",
               {pembench::Median(replica_market) -
                    pembench::Median(MarketRuntimes(same_engine)),
                "s"}});
  m.push_back({"protocol.audit_s", {audit * per_market, "s"}});
  m.push_back({"protocol.coalitions_s", {coalitions * per_market, "s"}});
  m.push_back({"protocol.market_eval_s", {eval * per_market, "s"}});
  m.push_back({"protocol.pricing_s", {pricing * per_market, "s"}});
  m.push_back({"protocol.distribution_s", {distribution * per_market, "s"}});
  m.push_back({"protocol.refill_s", {refill * per_market, "s"}});
  m.push_back({"protocol.unattributed_s",
               {(replica_online - audit - coalitions - eval - pricing -
                 distribution) * per_market,
                "s"}});
  m.push_back({"protocol.keygens", {keygens * per_market, "count"}});
  m.push_back({"protocol.pool_factors_taken", {taken * per_market, "count"}});
  m.push_back({"protocol.ring_contributions", {ring * per_market, "count"}});
  m.push_back({"crypto.keygen_s", {ct.keygen_s, "s"}});
  m.push_back({"crypto.encrypt_public_s", {ct.encrypt_public_s, "s"}});
  m.push_back({"crypto.encrypt_crt_s", {ct.encrypt_crt_s, "s"}});
  m.push_back({"crypto.encrypt_pooled_s", {ct.encrypt_pooled_s, "s"}});
  m.push_back({"crypto.decrypt_s", {ct.decrypt_s, "s"}});
  m.push_back({"crypto.scalar_mul_s", {ct.scalar_mul_s, "s"}});
  m.push_back({"crypto.compare_s", {ct.compare_s, "s"}});
  m.push_back({"net.frame_s", {frame_s, "s"}});
  m.push_back({"net.forked_overhead_s", {forked_overhead, "s"}});
  for (const std::string& t : pembench::TagNames()) {
    m.push_back({"net.frames." + t, {tags[t].first * per_market, "count"}});
  }
  for (const std::string& t : pembench::TagNames()) {
    m.push_back({"net.bytes." + t, {tags[t].second * per_market, "B"}});
  }

  // JSON lines and the trace-event file.
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string stem = args.out + "/" + w.name + "-seed" +
                           std::to_string(args.seed);
  if (FILE* f = std::fopen((stem + ".jsonl").c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 "}\n",
                 w.Describe().c_str(), args.seed);
    for (size_t i = 0; i < ws.size(); ++i) {
      const pembench::ReplicaWindow& rw = replica.windows[i];
      std::fprintf(
          f,
          "{\"window\": %d, \"type\": \"%s\", \"price\": %.17g, "
          "\"runtime_s\": %.9f, \"bus_bytes\": %" PRIu64
          ", \"rng_cursor\": %" PRIu64
          ", \"replica\": {\"window_s\": %.9f, \"audit_s\": %.9f, "
          "\"coalitions_s\": %.9f, \"market_eval_s\": %.9f, "
          "\"pricing_s\": %.9f, \"distribution_s\": %.9f, \"refill_s\": %.9f, "
          "\"keygens\": %d, \"pool_factors_taken\": %" PRIu64
          ", \"trades\": %zu}}\n",
          ws[i].window, pembench::MarketTypeName(ws[i].type), ws[i].price,
          ws[i].runtime_seconds, ws[i].bus_bytes, ws[i].rng_cursor,
          rw.window_s, rw.audit_s, rw.coalitions_s, rw.market_eval_s,
          rw.pricing_s, rw.distribution_s, rw.refill_s, rw.keygens,
          rw.pool_factors_taken, rw.trades.size());
    }
    std::fprintf(f, "{\"per_layer\": {");
    for (size_t i = 0; i < m.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(),
                   m[i].second.first);
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
  }
  WriteTraceEvents(stem + ".trace.json", round, replica);
  std::fprintf(stderr, "%s: traced; wrote %s.jsonl and %s.trace.json\n",
               w.Describe().c_str(), stem.c_str(), stem.c_str());
  PrintResult(true, tally, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const std::optional<pembench::Workload> w =
      pembench::FindWorkload(args.workload);
  if (!w) Usage(("unknown workload " + args.workload).c_str());
  try {
    const double t0 = pembench::SinceStart();
    const pem::grid::CommunityTrace trace = pembench::MakeTrace(*w);
    const double trace_s = pembench::SinceStart() - t0;
    return args.trace ? TracedRun(args, *w, trace, trace_s)
                      : TimedRun(args, *w, trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pembench: %s\n", e.what());
    return 1;
  }
}
