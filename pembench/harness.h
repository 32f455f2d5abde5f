// Timed runs of core::RunSimulation and their evaluation.
//
// One round is one RunSimulation call over the workload's sampled day,
// with a bus observer that timestamps every delivered frame.  From the
// frames and the returned WindowRecords the harness derives when the
// first window started (so set-up and the day separate without touching
// the library), cuts the frame stream into windows, rebuilds each
// window's trades from its transfer and payment frames, and runs the
// checks of checks.h against the plaintext oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "core/simulation.h"
#include "grid/trace.h"
#include "market/clearing.h"
#include "workloads.h"

namespace pembench {

// Seconds since this process started (steady clock, taken during
// static initialization).
double SinceStart();

struct CpuTimes {
  double self_s = 0.0;
  double children_s = 0.0;  // reaped children only (getrusage)
};
CpuTimes CpuNow();
// Largest peak resident set of this process or any reaped child, MiB.
double PeakRssMiB();

struct Round {
  pem::core::SimulationResult sim;
  std::vector<Frame> frames;
  double call_s = 0.0;          // RunSimulation entered (SinceStart)
  double first_window_s = 0.0;  // first sampled window started
  double end_s = 0.0;           // RunSimulation returned
  CpuTimes cpu;                 // spent inside the call
  std::string error;            // what() when RunSimulation threw

  double day_s() const { return end_s - first_window_s; }
};

// `frames` is a buffer to tap into (cleared first), so a run of several
// rounds can reuse one allocation instead of growing a new one inside
// every timed day.
Round RunRound(const pem::grid::CommunityTrace& trace,
               const pem::core::SimulationConfig& config,
               std::vector<Frame> frames = {});

// The plaintext clearing oracle: RunSimulation(kPlaintext) records
// plus each sampled window's per-agent MarketOutcome, from a battery
// loop of the benchmark's own.
struct Oracle {
  std::vector<pem::core::WindowRecord> records;
  std::vector<pem::market::MarketOutcome> outcomes;
};
Oracle BuildOracle(const pem::grid::CommunityTrace& trace, const Workload& w);

// Attempted and failed windows, with the first failure lines.
struct Tally {
  int attempted = 0;
  int failed = 0;
  Failures lines;

  // Records one window's failures (none: a passed window).
  void Add(const Failures& window_failures);
};

// Runs every per-window check on one round and returns each window's
// failures, one entry per window the oracle ran.  `twin` is the serial
// in-process run of the same configuration (forked workloads), or
// null.  A round that threw fails every window it should have run.
std::vector<Failures> CheckRound(const Workload& w,
                                 const pem::core::SimulationConfig& cfg,
                                 const Round& round, const Oracle& oracle,
                                 const pem::core::SimulationResult* twin);

bool IsMarket(const pem::core::WindowRecord& rec);
double Median(std::vector<double> v);
double Min(const std::vector<double>& v);  // 0 for an empty v

}  // namespace pembench
