#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

#include "crypto/secure_compare.h"
#include "net/frame.h"
#include "net/serialize.h"
#include "protocol/coin_flip.h"
#include "protocol/context.h"

namespace pembench {

namespace {

using pem::core::WindowRecord;
using pem::market::MarketType;

struct TagEntry {
  uint32_t type;
  const char* name;
};

constexpr TagEntry kTags[] = {
    {pem::protocol::kMsgRingHop, "ring_hop"},
    {pem::protocol::kMsgRingFinal, "ring_final"},
    {pem::protocol::kMsgMarketCase, "market_case"},
    {pem::protocol::kMsgPrice, "price"},
    {pem::protocol::kMsgEncTotal, "enc_total"},
    {pem::protocol::kMsgRatioCipher, "ratio_cipher"},
    {pem::protocol::kMsgRatioBroadcast, "ratio_broadcast"},
    {pem::protocol::kMsgEnergyTransfer, "energy_transfer"},
    {pem::protocol::kMsgPayment, "payment"},
    {pem::protocol::kMsgPublicKey, "public_key"},
    {pem::protocol::kMsgCoinCommit, "coin_commit"},
    {pem::protocol::kMsgCoinReveal, "coin_reveal"},
    {pem::protocol::kMsgAuditContribution, "audit_contribution"},
    {pem::protocol::kMsgAuditDemand, "audit_demand"},
    {pem::protocol::kMsgAuditWitness, "audit_witness"},
    {pem::protocol::kMsgAuditVerdict, "audit_verdict"},
    {pem::crypto::kMsgGcTablesAndOt1, "gc_tables_ot1"},
    {pem::crypto::kMsgGcOtResponses, "gc_ot_responses"},
    {pem::crypto::kMsgGcOtFinal, "gc_ot_final"},
    {pem::crypto::kMsgGcResult, "gc_result"},
};

// Appends "window <w> <check>: <printf-formatted detail>".
[[gnu::format(printf, 4, 5)]] void Fail(Failures& out, const WindowRecord& rec,
                                        const char* check, const char* fmt,
                                        ...) {
  char detail[200];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(detail, sizeof detail, fmt, args);
  va_end(args);
  char line[256];
  std::snprintf(line, sizeof line, "window %d %s: %s", rec.window, check,
                detail);
  out.emplace_back(line);
}

void ExpectNear(Failures& out, const WindowRecord& rec, const char* what,
                double got, double want, double tol) {
  if (!(std::abs(got - want) <= tol)) {
    Fail(out, rec, what, "got %.12g, oracle %.12g", got, want);
  }
}

}  // namespace

const char* MarketTypeName(MarketType t) {
  switch (t) {
    case MarketType::kGeneral: return "general";
    case MarketType::kExtreme: return "extreme";
    case MarketType::kNoMarket: return "no-market";
  }
  return "?";
}

Frame TapFrame(const pem::net::Message& m, int64_t t_ns) {
  Frame f;
  f.t_ns = t_ns;
  f.from = m.from;
  f.to = m.to;
  f.type = m.type;
  f.framed_bytes = static_cast<uint32_t>(pem::net::FramedSize(m));
  if ((m.type == pem::protocol::kMsgEnergyTransfer ||
       m.type == pem::protocol::kMsgPayment) &&
      m.payload.size() == 12) {
    pem::net::ByteReader r(m.payload);
    (void)r.U32();
    f.amount = r.F64();
  }
  return f;
}

const char* TagName(uint32_t type) {
  for (const TagEntry& e : kTags) {
    if (e.type == type) return e.name;
  }
  return "other";
}

const std::vector<std::string>& TagNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const TagEntry& e : kTags) out.emplace_back(e.name);
    out.emplace_back("other");
    return out;
  }();
  return names;
}

std::vector<size_t> SplitByWindow(std::span<const Frame> frames,
                                  std::span<const WindowRecord> windows) {
  std::vector<size_t> bounds{0};
  size_t pos = 0;
  for (const WindowRecord& w : windows) {
    uint64_t sum = 0;
    while (pos < frames.size() && sum < w.bus_bytes) {
      sum += frames[pos++].framed_bytes;
    }
    bounds.push_back(pos);
  }
  if (!windows.empty()) bounds.back() = frames.size();
  return bounds;
}

std::vector<pem::protocol::Trade> WireTrades(std::span<const Frame> frames,
                                             Failures& out) {
  // (seller, buyer) -> energy and payment as they crossed the wire.
  struct Pair {
    int transfers = 0;
    int payments = 0;
    double energy = 0.0;
    double payment = 0.0;
  };
  std::map<std::pair<int, int>, Pair> pairs;
  for (const Frame& f : frames) {
    if (f.type == pem::protocol::kMsgEnergyTransfer) {
      Pair& p = pairs[{f.from, f.to}];
      ++p.transfers;
      p.energy = f.amount;
    } else if (f.type == pem::protocol::kMsgPayment) {
      Pair& p = pairs[{f.to, f.from}];
      ++p.payments;
      p.payment = f.amount;
    }
  }
  std::vector<pem::protocol::Trade> trades;
  trades.reserve(pairs.size());
  for (const auto& [key, p] : pairs) {
    if (p.transfers != 1 || p.payments != 1) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "wire trades: seller %d -> buyer %d has %d transfer and "
                    "%d payment frames",
                    key.first, key.second, p.transfers, p.payments);
      out.emplace_back(line);
      continue;
    }
    trades.push_back(pem::protocol::Trade{static_cast<size_t>(key.first),
                                          static_cast<size_t>(key.second),
                                          p.energy, p.payment});
  }
  return trades;
}

void CheckOracle(const WindowRecord& got, const WindowRecord& oracle,
                 Failures& out) {
  if (got.window != oracle.window) {
    Fail(out, got, "oracle", "oracle record is window %d", oracle.window);
    return;
  }
  if (got.type != oracle.type) {
    Fail(out, got, "oracle type", "got %s, oracle %s", MarketTypeName(got.type),
         MarketTypeName(oracle.type));
  }
  ExpectNear(out, got, "oracle price", got.price, oracle.price,
             kPriceTolerance);
  ExpectNear(out, got, "oracle supply", got.supply_total, oracle.supply_total,
             kAmountTolerance);
  ExpectNear(out, got, "oracle demand", got.demand_total, oracle.demand_total,
             kAmountTolerance);
  ExpectNear(out, got, "oracle buyer cost", got.buyer_cost_pem,
             oracle.buyer_cost_pem, kAmountTolerance);
  ExpectNear(out, got, "oracle grid interaction", got.grid_interaction_pem,
             oracle.grid_interaction_pem, kAmountTolerance);
}

void CheckPriceRange(const WindowRecord& got,
                     const pem::market::MarketParams& params, Failures& out) {
  if (!(got.price >= params.price_floor && got.price <= params.retail_price)) {
    Fail(out, got, "price range", "price %.12g outside [%.12g, %.12g]",
         got.price, params.price_floor, params.retail_price);
  }
}

void CheckRationality(const WindowRecord& got, Failures& out) {
  if (!(got.buyer_cost_pem <= got.buyer_cost_baseline + kAmountTolerance)) {
    Fail(out, got, "rationality", "buyers pay %.12g, baseline %.12g",
         got.buyer_cost_pem, got.buyer_cost_baseline);
  }
}

void CheckTrades(std::span<const pem::protocol::Trade> trades,
                 const WindowRecord& got,
                 const pem::market::MarketOutcome& oracle, Failures& out) {
  const size_t n = oracle.net_energy.size();
  std::vector<double> sold(n, 0.0);
  std::vector<double> bought(n, 0.0);
  double traded = 0.0;
  for (const pem::protocol::Trade& t : trades) {
    if (t.seller_index >= n || t.buyer_index >= n) {
      Fail(out, got, "trades", "trade names agent %zu of %zu",
           std::max(t.seller_index, t.buyer_index), n);
      continue;
    }
    if (!(std::abs(t.payment - got.price * t.energy_kwh) <=
          kPaymentTolerance)) {
      Fail(out, got, "trade payment", "paid %.12g for %.12g kWh",
           t.payment, t.energy_kwh);
    }
    sold[t.seller_index] += t.energy_kwh;
    bought[t.buyer_index] += t.energy_kwh;
    traded += t.energy_kwh;
  }
  const double expected =
      got.type == MarketType::kNoMarket
          ? 0.0
          : std::min(oracle.supply_total, oracle.demand_total);
  ExpectNear(out, got, "traded energy", traded, expected, kAmountTolerance);
  for (size_t i = 0; i < n; ++i) {
    const pem::grid::Role role = oracle.roles[i];
    const double supply =
        role == pem::grid::Role::kSeller ? oracle.net_energy[i] : 0.0;
    const double demand =
        role == pem::grid::Role::kBuyer ? -oracle.net_energy[i] : 0.0;
    if (sold[i] > supply + kAmountTolerance) {
      Fail(out, got, "seller cap", "sold %.12g, supply %.12g", sold[i],
           supply);
    }
    if (bought[i] > demand + kAmountTolerance) {
      Fail(out, got, "buyer cap", "bought %.12g, demand %.12g", bought[i],
           demand);
    }
  }
}

void CheckBytes(uint64_t tapped, uint64_t counted, Failures& out) {
  if (tapped != counted) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "bytes: observer tap %llu, endpoint counters %llu",
                  static_cast<unsigned long long>(tapped),
                  static_cast<unsigned long long>(counted));
    out.emplace_back(line);
  }
}

void CheckTwin(const WindowRecord& got, const WindowRecord& twin,
               Failures& out) {
  if (got.window != twin.window || got.type != twin.type ||
      got.price != twin.price || got.bus_bytes != twin.bus_bytes ||
      got.rng_cursor != twin.rng_cursor) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "window %d twin: forked (%s, %.17g, %llu B, cursor %llu) vs "
                  "serial (%s, %.17g, %llu B, cursor %llu)",
                  got.window, MarketTypeName(got.type), got.price,
                  static_cast<unsigned long long>(got.bus_bytes),
                  static_cast<unsigned long long>(got.rng_cursor),
                  MarketTypeName(twin.type), twin.price,
                  static_cast<unsigned long long>(twin.bus_bytes),
                  static_cast<unsigned long long>(twin.rng_cursor));
    out.emplace_back(line);
  }
}

void CheckAudited(const WindowRecord& got, Failures& out) {
  const bool market = got.num_sellers + got.num_buyers >= 2;
  if (market && !got.audit.audited) {
    Fail(out, got, "audit", "%d agents on the market, not audited",
         got.num_sellers + got.num_buyers);
  }
  if (!got.audit.faults.empty()) {
    Fail(out, got, "audit", "%zu agents convicted by auditor %d",
         got.audit.faults.size(), got.audit.auditor);
  }
}

void CheckReplica(const WindowRecord& got, const ReplicaOutcome& replica,
                  Failures& out) {
  if (got.type != replica.type || got.price != replica.price ||
      got.rng_cursor != replica.rng_cursor ||
      got.bus_bytes != replica.bus_bytes) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "window %d replica: run (%s, %.17g, %llu B, cursor %llu) vs "
                  "replica (%s, %.17g, %llu B, cursor %llu)",
                  got.window, MarketTypeName(got.type), got.price,
                  static_cast<unsigned long long>(got.bus_bytes),
                  static_cast<unsigned long long>(got.rng_cursor),
                  MarketTypeName(replica.type), replica.price,
                  static_cast<unsigned long long>(replica.bus_bytes),
                  static_cast<unsigned long long>(replica.rng_cursor));
    out.emplace_back(line);
  }
}

}  // namespace pembench
