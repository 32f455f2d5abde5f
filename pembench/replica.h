// The traced replica: core::RunSimulation's in-process window loop,
// rebuilt from the library's public phase functions so that each phase
// can be timed apart.
//
// Per sampled window it calls, in Protocol 1's order, RunAuditRound,
// FormCoalitions, RunPrivateMarketEvaluation, RunPrivatePricing (general
// market) and RunPrivateDistribution, then the idle-time
// PaillierPoolRegistry::RefillAll.  Every rng draw happens in the same
// order as in RunSimulation, so the replica's prices, transcript bytes
// and rng cursors equal the untraced run's bit for bit — the traced
// run checks exactly that before it reports any per-layer number.
// Pass a forked configuration through SerialTwin first: the replica
// runs in-process, and the forked backends reproduce the serial
// engine's transcript.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "core/simulation.h"
#include "grid/trace.h"
#include "protocol/distribution.h"

namespace pembench {

// One timed span (seconds since process start), for the trace file.
struct Span {
  std::string name;
  int window = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
};

struct ReplicaWindow {
  int window = 0;
  ReplicaOutcome outcome;
  std::vector<pem::protocol::Trade> trades;
  double audit_s = 0.0;
  double coalitions_s = 0.0;
  double market_eval_s = 0.0;
  double pricing_s = 0.0;
  double distribution_s = 0.0;
  double window_s = 0.0;  // the whole window, settlement included
  double refill_s = 0.0;  // idle time after the window
  int keygens = 0;        // parties whose HasKeys() flipped
  // Drop of pool available() across the window, over the pools that
  // existed when it started (a pool made mid-window starts dry).
  uint64_t pool_factors_taken = 0;
};

struct ReplicaRun {
  std::vector<ReplicaWindow> windows;
  std::vector<Span> spans;
  std::string error;  // what() when a phase threw
};

ReplicaRun RunReplica(const pem::grid::CommunityTrace& trace,
                      const pem::core::SimulationConfig& config);

}  // namespace pembench
