// The benchmark's named workloads and the configurations built from them.
//
// Every workload runs one sampled day of the default community trace
// (grid::GenerateCommunityTrace with its stock TraceConfig, only the
// community size changed).  The sampled windows are spread evenly over
// the whole 24 h — stride = windows_per_day / sampled_windows, offset
// = stride / 2 — so general, extreme and no-market windows occur in
// about the proportions a real day has them.  The --seed argument
// drives everything random in the crypto engine: keys, nonces,
// encryption randomness, aggregator elections and the audit coin flip.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.h"
#include "grid/trace.h"
#include "net/transport.h"

namespace pembench {

struct Workload {
  std::string name;
  int homes = 0;
  int key_bits = 0;
  pem::net::ExecutionPolicy policy;
  // Idle-time encryption-randomness pools, topped up between windows
  // to one window's encryptions under one key (= homes).
  bool precompute = false;
  // A §VI audit round at the top of every window.
  bool audit = false;
  int sampled_windows = 0;
  int windows_per_day = 720;

  bool forked() const;
  int stride() const { return windows_per_day / sampled_windows; }
  int offset() const { return stride() / 2; }
  // One line for logs and the JSON-lines header.
  std::string Describe() const;
};

const std::vector<std::string>& WorkloadNames();
std::optional<Workload> FindWorkload(std::string_view name);

// The same workload shrunk to smoke-test size: 4 homes, 256-bit keys,
// 4 sampled windows; backend, pools and audit are kept.
Workload Toy(Workload w);

pem::grid::CommunityTrace MakeTrace(const Workload& w);

// The crypto-engine configuration of a timed run.
pem::core::SimulationConfig MakeConfig(const Workload& w, uint64_t seed);

// The same configuration on the serial in-process engine: the forked
// workload's parity twin, and the engine the traced replica mirrors.
pem::core::SimulationConfig SerialTwin(const Workload& w, uint64_t seed);

// The plaintext clearing oracle over the same trace and windows.
pem::core::SimulationConfig OracleConfig(const Workload& w);

}  // namespace pembench
