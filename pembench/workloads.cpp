#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace pembench {

namespace {

int ComputeWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 8u));
}

std::vector<Workload> AllWorkloads() {
  Workload paper;
  paper.name = "paper_n100";
  paper.homes = 100;
  paper.key_bits = 2048;
  paper.policy = pem::net::ExecutionPolicy::Parallel(ComputeWorkers());
  paper.precompute = true;
  paper.sampled_windows = 6;

  Workload forked;
  forked.name = "forked_n8";
  forked.homes = 8;
  forked.key_bits = 1024;
  forked.policy = pem::net::ExecutionPolicy::Process();
  forked.sampled_windows = 15;

  Workload audit;
  audit.name = "audit_n300";
  audit.homes = 300;
  audit.key_bits = 512;
  audit.policy = pem::net::ExecutionPolicy::Serial();
  audit.audit = true;
  audit.sampled_windows = 12;

  return {paper, forked, audit};
}

}  // namespace

bool Workload::forked() const {
  using pem::net::TransportKind;
  return policy.transport_kind == TransportKind::kProcess ||
         policy.transport_kind == TransportKind::kTcp ||
         policy.transport_kind == TransportKind::kShm;
}

std::string Workload::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: %d homes, %d-bit keys, %s backend x %d workers, "
                "%d of %d windows (stride %d, offset %d)%s%s",
                name.c_str(), homes, key_bits,
                pem::net::TransportKindName(policy.transport_kind),
                static_cast<int>(policy.worker_count()), sampled_windows,
                windows_per_day, stride(), offset(),
                precompute ? ", idle-time pools" : "",
                audit ? ", audit every window" : "");
  return buf;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : AllWorkloads()) out.push_back(w.name);
    return out;
  }();
  return names;
}

std::optional<Workload> FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

Workload Toy(Workload w) {
  w.name += "_toy";
  w.homes = 4;
  w.key_bits = 256;
  w.sampled_windows = 4;
  return w;
}

pem::grid::CommunityTrace MakeTrace(const Workload& w) {
  pem::grid::TraceConfig tc;
  tc.num_homes = w.homes;
  tc.windows_per_day = w.windows_per_day;
  return pem::grid::GenerateCommunityTrace(tc);
}

pem::core::SimulationConfig MakeConfig(const Workload& w, uint64_t seed) {
  pem::core::SimulationConfig cfg;
  cfg.engine = pem::core::Engine::kCrypto;
  cfg.crypto_seed = seed;
  cfg.policy = w.policy;
  cfg.window_stride = w.stride();
  cfg.window_offset = w.offset();
  cfg.pem.key_bits = w.key_bits;
  cfg.pem.precompute_encryption = w.precompute;
  cfg.pem.encryption_pool_target = static_cast<size_t>(w.homes);
  cfg.pem.audit.enabled = w.audit;
  cfg.pem.audit.audit_one_in = 1;
  cfg.pem.audit.seed ^= seed;
  return cfg;
}

pem::core::SimulationConfig SerialTwin(const Workload& w, uint64_t seed) {
  pem::core::SimulationConfig cfg = MakeConfig(w, seed);
  cfg.policy = pem::net::ExecutionPolicy::Serial();
  return cfg;
}

pem::core::SimulationConfig OracleConfig(const Workload& w) {
  pem::core::SimulationConfig cfg = MakeConfig(w, 1);
  cfg.engine = pem::core::Engine::kPlaintext;
  return cfg;
}

}  // namespace pembench
