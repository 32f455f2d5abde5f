#include "replica.h"

#include <exception>
#include <memory>

#include "harness.h"
#include "protocol/audit.h"
#include "protocol/key_directory.h"
#include "protocol/market_eval.h"
#include "protocol/party.h"
#include "protocol/pricing.h"

namespace pembench {

namespace {

namespace proto = pem::protocol;

// Times `fn` as one span named `name` and returns its duration.
template <typename Fn>
double Timed(std::vector<Span>& spans, const char* name, int window, Fn&& fn) {
  const double start = SinceStart();
  fn();
  const double dur = SinceStart() - start;
  spans.push_back({name, window, start, dur});
  return dur;
}

int CountKeyed(const std::vector<proto::Party>& parties) {
  int n = 0;
  for (const proto::Party& p : parties) n += p.HasKeys() ? 1 : 0;
  return n;
}

// Pooled factors available for each key in `keyed`.  With owner-CRT
// refills on, RunSimulation registers a pool for every keyed party after
// each window, so the parties keyed when a window starts all have one;
// asking for any other key would create a pool out of RunSimulation's
// registration order and shift the next refill's draws.
std::vector<size_t> PoolLevels(const std::vector<proto::Party>& parties,
                               const std::vector<bool>& keyed,
                               pem::crypto::PaillierPoolRegistry& pools) {
  std::vector<size_t> levels(parties.size(), 0);
  for (size_t i = 0; i < parties.size(); ++i) {
    if (keyed[i]) levels[i] = pools.PoolFor(parties[i].public_key()).available();
  }
  return levels;
}

}  // namespace

ReplicaRun RunReplica(const pem::grid::CommunityTrace& trace,
                      const pem::core::SimulationConfig& config) {
  ReplicaRun run;
  const int n = trace.num_homes();
  const proto::PemConfig& pem_cfg = config.pem;
  const bool pooled = pem_cfg.precompute_encryption;
  const bool track_pools = pooled && pem_cfg.crt_encryption;

  std::vector<pem::grid::Battery> batteries = trace.MakeBatteries();
  pem::crypto::DeterministicRng rng(config.crypto_seed);
  std::unique_ptr<pem::net::Transport> bus =
      pem::net::MakeTransport(config.policy.transport_kind, n);
  std::vector<pem::net::Endpoint> endpoints = bus->endpoints();
  std::vector<proto::Party> parties;
  parties.reserve(static_cast<size_t>(n));
  for (int h = 0; h < n; ++h) {
    parties.emplace_back(static_cast<pem::net::AgentId>(h),
                         trace.homes[static_cast<size_t>(h)].params);
  }
  pem::crypto::PaillierPoolRegistry pools;
  proto::KeyDirectory directory;
  const pem::market::MarketParams& mp = pem_cfg.market;

  std::vector<pem::grid::WindowState> states(static_cast<size_t>(n));
  try {
    for (int w = 0; w < trace.windows_per_day; ++w) {
      for (int h = 0; h < n; ++h) {
        states[static_cast<size_t>(h)] = trace.ResolveWindow(h, w, batteries);
      }
      if (w < config.window_offset ||
          (w - config.window_offset) % config.window_stride != 0) {
        continue;
      }
      for (int h = 0; h < n; ++h) {
        parties[static_cast<size_t>(h)].BeginWindow(
            states[static_cast<size_t>(h)], pem_cfg.nonce_bound, rng);
      }
      proto::ProtocolContext ctx{endpoints, rng, pem_cfg,
                                 pooled ? &pools : nullptr, config.policy,
                                 &directory};
      ctx.window = w;

      ReplicaWindow rw;
      rw.window = w;
      const int keyed_before = CountKeyed(parties);
      std::vector<bool> keyed(parties.size());
      for (size_t i = 0; i < parties.size(); ++i) {
        keyed[i] = track_pools && parties[i].HasKeys();
      }
      const std::vector<size_t> levels_before =
          PoolLevels(parties, keyed, pools);
      const uint64_t bytes_before = pem::net::TotalBytesSent(endpoints);
      const double window_start = SinceStart();

      rw.audit_s = Timed(run.spans, "audit", w,
                         [&] { proto::RunAuditRound(ctx, parties); });
      proto::Coalitions coalitions;
      rw.coalitions_s = Timed(run.spans, "coalitions", w, [&] {
        coalitions = proto::FormCoalitions(parties);
      });
      if (coalitions.sellers.empty() || coalitions.buyers.empty()) {
        rw.outcome.type = pem::market::MarketType::kNoMarket;
        rw.outcome.price = mp.retail_price;
      } else {
        proto::MarketEvalResult eval;
        rw.market_eval_s = Timed(run.spans, "market_eval", w, [&] {
          eval = proto::RunPrivateMarketEvaluation(ctx, parties, coalitions);
        });
        if (eval.general_market) {
          rw.outcome.type = pem::market::MarketType::kGeneral;
          rw.pricing_s = Timed(run.spans, "pricing", w, [&] {
            rw.outcome.price =
                proto::RunPrivatePricing(ctx, parties, coalitions).price;
          });
        } else {
          rw.outcome.type = pem::market::MarketType::kExtreme;
          rw.outcome.price = mp.price_floor;
        }
        rw.distribution_s = Timed(run.spans, "distribution", w, [&] {
          rw.trades = proto::RunPrivateDistribution(ctx, parties, coalitions,
                                                    eval.general_market,
                                                    rw.outcome.price)
                          .trades;
        });
      }
      rw.window_s = SinceStart() - window_start;
      run.spans.push_back({"window", w, window_start, rw.window_s});
      rw.outcome.bus_bytes = pem::net::TotalBytesSent(endpoints) - bytes_before;
      rw.outcome.rng_cursor = rng.Cursor();
      rw.keygens = CountKeyed(parties) - keyed_before;
      if (track_pools) {
        const std::vector<size_t> after = PoolLevels(parties, keyed, pools);
        for (size_t i = 0; i < parties.size(); ++i) {
          rw.pool_factors_taken += levels_before[i] - after[i];
        }
      }
      if (pooled) {
        rw.refill_s = Timed(run.spans, "refill", w, [&] {
          if (pem_cfg.crt_encryption) {
            for (const proto::Party& p : parties) {
              if (p.HasKeys()) pools.AttachOwner(p.private_key());
            }
          }
          pools.RefillAll(pem_cfg.encryption_pool_target, rng, config.policy);
        });
      }
      run.windows.push_back(std::move(rw));
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  return run;
}

}  // namespace pembench
