// Self-tests of the benchmark harness.
//
//   pembench_selftest
//
// 1. Smoke: every workload, shrunk to toy size (4 homes, 256-bit keys,
//    4 windows), runs a round, its serial twin and the traced replica,
//    and every window passes every check.
// 2. Each check fails when one field of a real record is corrupted: a
//    price nudged, a type flipped, a total or a cost shifted, a trade
//    dropped or inflated, a payment changed, a frame lost, a byte count
//    off by one, an rng cursor shifted, an audit skipped or a fault
//    added.  The uncorrupted record passes the same check.
// Exits 0 when every test passes, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "protocol/context.h"
#include "replica.h"
#include "workloads.h"

namespace {

using pem::core::WindowRecord;
using pembench::Failures;

int g_failed = 0;
int g_passed = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) {
    ++g_passed;
  } else {
    ++g_failed;
    std::printf("FAIL %s\n", what.c_str());
  }
}

// A toy day of one workload, fully checked.
struct ToyDay {
  pembench::Workload w;
  pem::core::SimulationConfig cfg;
  pembench::Round round;
  pembench::Oracle oracle;
  pem::core::SimulationResult twin;
  pembench::ReplicaRun replica;
};

ToyDay RunToy(const std::string& name, uint64_t seed) {
  ToyDay d;
  d.w = pembench::Toy(*pembench::FindWorkload(name));
  const pem::grid::CommunityTrace trace = pembench::MakeTrace(d.w);
  d.cfg = pembench::MakeConfig(d.w, seed);
  d.round = pembench::RunRound(trace, d.cfg);
  d.oracle = pembench::BuildOracle(trace, d.w);
  d.twin = pem::core::RunSimulation(trace, pembench::SerialTwin(d.w, seed));
  d.replica = pembench::RunReplica(
      trace, d.w.forked() ? pembench::SerialTwin(d.w, seed) : d.cfg);
  return d;
}

void SmokeTest(const ToyDay& d) {
  const std::string name = d.w.name;
  Expect(d.round.error.empty(), name + ": round ran (" + d.round.error + ")");
  Expect(d.replica.error.empty(),
         name + ": replica ran (" + d.replica.error + ")");
  const std::vector<Failures> failures = pembench::CheckRound(
      d.w, d.cfg, d.round, d.oracle, d.w.forked() ? &d.twin : nullptr);
  Expect(static_cast<int>(failures.size()) == d.w.sampled_windows,
         name + ": every sampled window checked");
  int market = 0;
  for (size_t i = 0; i < failures.size(); ++i) {
    for (const std::string& line : failures[i]) {
      Expect(false, name + ": " + line);
    }
    if (i >= d.round.sim.windows.size() || i >= d.replica.windows.size()) {
      continue;
    }
    const WindowRecord& rec = d.round.sim.windows[i];
    market += pembench::IsMarket(rec) ? 1 : 0;
    Failures f;
    pembench::CheckReplica(rec, d.replica.windows[i].outcome, f);
    pembench::CheckTrades(d.replica.windows[i].trades, rec,
                          d.oracle.outcomes[i], f);
    for (const std::string& line : f) Expect(false, name + ": " + line);
  }
  Expect(market > 0, name + ": the toy day has a market window");
  std::printf("smoke %s: %zu windows, %d market\n", name.c_str(),
              d.round.sim.windows.size(), market);
}

// Runs `check` on the clean input (must pass), then on the corrupted
// one (must fail).
void ExpectCaught(const std::string& what,
                  const std::function<void(Failures&, bool corrupt)>& check) {
  Failures clean;
  check(clean, false);
  Expect(clean.empty(), what + ": clean record passes" +
                            (clean.empty() ? "" : " (" + clean[0] + ")"));
  Failures bad;
  check(bad, true);
  Expect(!bad.empty(), what + ": corruption caught");
}

void CorruptionTests(const ToyDay& d) {
  const std::vector<WindowRecord>& ws = d.round.sim.windows;
  // The first window with trades.
  size_t mi = ws.size();
  for (size_t i = 0; i < ws.size() && i < d.replica.windows.size(); ++i) {
    if (!d.replica.windows[i].trades.empty()) {
      mi = i;
      break;
    }
  }
  if (mi == ws.size()) {
    Expect(false, "corruption tests need a toy window with trades");
    return;
  }
  const WindowRecord& rec = ws[mi];
  const WindowRecord& oracle = d.oracle.records[mi];
  const pem::market::MarketOutcome& outcome = d.oracle.outcomes[mi];
  const pembench::ReplicaWindow& rw = d.replica.windows[mi];

  auto oracle_field = [&](const char* what, auto mutate) {
    ExpectCaught(what, [&](Failures& f, bool corrupt) {
      WindowRecord r = rec;
      if (corrupt) mutate(r);
      pembench::CheckOracle(r, oracle, f);
    });
  };
  oracle_field("oracle: price nudged", [](WindowRecord& r) { r.price += 1e-4; });
  oracle_field("oracle: type flipped", [](WindowRecord& r) {
    r.type = r.type == pem::market::MarketType::kGeneral
                 ? pem::market::MarketType::kExtreme
                 : pem::market::MarketType::kGeneral;
  });
  oracle_field("oracle: supply shifted",
               [](WindowRecord& r) { r.supply_total += 1e-3; });
  oracle_field("oracle: demand shifted",
               [](WindowRecord& r) { r.demand_total -= 1e-3; });
  oracle_field("oracle: buyer cost shifted",
               [](WindowRecord& r) { r.buyer_cost_pem += 1e-3; });
  oracle_field("oracle: grid interaction shifted",
               [](WindowRecord& r) { r.grid_interaction_pem += 1e-3; });

  ExpectCaught("price range: above retail", [&](Failures& f, bool corrupt) {
    WindowRecord r = rec;
    if (corrupt) r.price = d.cfg.pem.market.retail_price + 0.01;
    pembench::CheckPriceRange(r, d.cfg.pem.market, f);
  });
  ExpectCaught("price range: below floor", [&](Failures& f, bool corrupt) {
    WindowRecord r = rec;
    if (corrupt) r.price = d.cfg.pem.market.price_floor - 0.01;
    pembench::CheckPriceRange(r, d.cfg.pem.market, f);
  });
  ExpectCaught("rationality: buyers overpay", [&](Failures& f, bool corrupt) {
    WindowRecord r = rec;
    if (corrupt) r.buyer_cost_pem = r.buyer_cost_baseline + 0.01;
    pembench::CheckRationality(r, f);
  });

  auto trades_case = [&](const char* what, auto mutate) {
    ExpectCaught(what, [&](Failures& f, bool corrupt) {
      std::vector<pem::protocol::Trade> t = rw.trades;
      if (corrupt) mutate(t);
      pembench::CheckTrades(t, rec, outcome, f);
    });
  };
  trades_case("trades: one dropped",
              [](std::vector<pem::protocol::Trade>& t) { t.pop_back(); });
  trades_case("trades: payment changed",
              [](std::vector<pem::protocol::Trade>& t) { t[0].payment += 1e-6; });
  trades_case("trades: seller oversells", [&](std::vector<pem::protocol::Trade>& t) {
    // An extra trade larger than the seller's whole supply.
    pem::protocol::Trade extra = t[0];
    extra.energy_kwh = outcome.net_energy[extra.seller_index] + 0.01;
    extra.payment = rec.price * extra.energy_kwh;
    t.push_back(extra);
  });

  // Wire-level: lose one payment frame, or shift one window's byte
  // count by one.
  const std::vector<size_t> bounds =
      pembench::SplitByWindow(d.round.frames, ws);
  const std::span<const pembench::Frame> frames(
      d.round.frames.data() + bounds[mi], bounds[mi + 1] - bounds[mi]);
  ExpectCaught("wire: payment frame lost", [&](Failures& f, bool corrupt) {
    std::vector<pembench::Frame> fr(frames.begin(), frames.end());
    if (corrupt) {
      for (size_t i = 0; i < fr.size(); ++i) {
        if (fr[i].type == pem::protocol::kMsgPayment) {
          fr.erase(fr.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    const std::vector<pem::protocol::Trade> t = pembench::WireTrades(fr, f);
    pembench::CheckTrades(t, rec, outcome, f);
  });
  ExpectCaught("bytes: counter off by one", [&](Failures& f, bool corrupt) {
    uint64_t tapped = 0;
    for (const pembench::Frame& fr : frames) tapped += fr.framed_bytes;
    pembench::CheckBytes(tapped, rec.bus_bytes + (corrupt ? 1 : 0), f);
  });
  ExpectCaught("bytes: a record off by one through the round check",
               [&](Failures& f, bool corrupt) {
                 pembench::Round r = d.round;
                 if (corrupt) r.sim.windows[mi].bus_bytes += 1;
                 const std::vector<Failures> all = pembench::CheckRound(
                     d.w, d.cfg, r, d.oracle,
                     d.w.forked() ? &d.twin : nullptr);
                 f = all[mi];
               });

  ExpectCaught("twin: cursor shifted", [&](Failures& f, bool corrupt) {
    WindowRecord t = d.twin.windows[mi];
    if (corrupt) t.rng_cursor += 1;
    pembench::CheckTwin(rec, t, f);
  });
  ExpectCaught("twin: bytes off by one", [&](Failures& f, bool corrupt) {
    WindowRecord t = d.twin.windows[mi];
    if (corrupt) t.bus_bytes += 1;
    pembench::CheckTwin(rec, t, f);
  });
  ExpectCaught("replica: cursor shifted", [&](Failures& f, bool corrupt) {
    pembench::ReplicaOutcome o = rw.outcome;
    if (corrupt) o.rng_cursor += 1;
    pembench::CheckReplica(rec, o, f);
  });
  ExpectCaught("replica: price nudged", [&](Failures& f, bool corrupt) {
    pembench::ReplicaOutcome o = rw.outcome;
    if (corrupt) o.price = std::nextafter(o.price, 2.0);
    pembench::CheckReplica(rec, o, f);
  });

  if (d.w.audit) {
    ExpectCaught("audit: window skipped", [&](Failures& f, bool corrupt) {
      WindowRecord r = rec;
      if (corrupt) r.audit.audited = false;
      pembench::CheckAudited(r, f);
    });
    ExpectCaught("audit: agent convicted", [&](Failures& f, bool corrupt) {
      WindowRecord r = rec;
      if (corrupt) r.audit.faults.push_back(pem::protocol::ProtocolFault{});
      pembench::CheckAudited(r, f);
    });
  }
}

}  // namespace

int main() {
  for (const std::string& name : pembench::WorkloadNames()) {
    const ToyDay d = RunToy(name, 7);
    SmokeTest(d);
    CorruptionTests(d);
  }
  std::printf("%d passed, %d failed\n", g_passed, g_failed);
  return g_failed == 0 ? 0 : 1;
}
