#include "layers.h"

#include <cstring>
#include <memory>
#include <vector>

#include "crypto/paillier.h"
#include "crypto/rng.h"
#include "harness.h"
#include "net/agent_supervisor.h"
#include "net/process_transport.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace pembench {

namespace {

// Median seconds per call of `fn`: at least `min_reps` samples, more
// while `budget_s` lasts; each sample times `batch` calls.
template <typename Fn>
double MedianPerCall(Fn&& fn, int min_reps, double budget_s, int batch = 1) {
  std::vector<double> samples;
  const pem::Stopwatch total;
  while (static_cast<int>(samples.size()) < min_reps ||
         (total.ElapsedSeconds() < budget_s && samples.size() < 1000)) {
    const pem::Stopwatch one;
    for (int i = 0; i < batch; ++i) fn();
    samples.push_back(one.ElapsedSeconds() / batch);
  }
  return Median(std::move(samples));
}

constexpr uint32_t kFrameTag = 0x5042'0001;  // "PB": this benchmark's own
constexpr int kPingPongs = 200;

double TimeFrameForked(size_t payload_bytes) {
  const std::vector<uint8_t> payload(payload_bytes, 0xA5);
  // Both children run the same script: agent 0 sends, agent 1 answers.
  // Each child's own sends cross its socketpair and the parent's relay
  // router; the other agent's steps only advance its shadow script.
  pem::net::ProcessTransport::ChildMain child =
      [&payload](pem::net::AgentId self, pem::net::Transport& wire,
                 pem::net::ControlChannel& ctl) -> int {
    constexpr int kWaitMs = 60'000;
    if (ctl.Read(kWaitMs).tag != pem::net::kCtlCmdRun) return 3;
    const pem::Stopwatch sw;
    for (int i = 0; i < kPingPongs; ++i) {
      wire.Send(pem::net::Message{0, 1, kFrameTag, payload});
      (void)wire.Receive(1);
      wire.Send(pem::net::Message{1, 0, kFrameTag, payload});
      (void)wire.Receive(0);
    }
    const double per_frame = sw.ElapsedSeconds() / (2.0 * kPingPongs);
    uint8_t bytes[sizeof per_frame];
    std::memcpy(bytes, &per_frame, sizeof bytes);
    ctl.Write(pem::net::kCtlRepWindow, bytes);
    (void)self;
    if (ctl.Read(kWaitMs).tag != pem::net::kCtlCmdShutdown) return 4;
    ctl.Write(pem::net::kCtlRepDone);
    return 0;
  };
  pem::net::ProcessTransport transport(2, child);
  transport.CommandAll(pem::net::kCtlCmdRun);
  double per_frame = 0.0;
  for (pem::net::AgentId a = 0; a < 2; ++a) {
    const pem::net::ControlRecord rec = transport.ReadRecord(a);
    PEM_CHECK(rec.tag == pem::net::kCtlRepWindow &&
                  rec.payload.size() == sizeof per_frame,
              "TimeFrame: unexpected child report");
    if (a == 0) std::memcpy(&per_frame, rec.payload.data(), sizeof per_frame);
  }
  transport.Shutdown();
  return per_frame;
}

}  // namespace

CryptoTimes TimeCrypto(int key_bits,
                       const pem::crypto::SecureCompareConfig& compare,
                       uint64_t seed) {
  namespace crypto = pem::crypto;
  crypto::DeterministicRng rng(seed);
  CryptoTimes t;
  t.keygen_s = MedianPerCall(
      [&] { (void)crypto::GeneratePaillierKeyPair(key_bits, rng); }, 3, 1.0);
  const crypto::PaillierKeyPair kp =
      crypto::GeneratePaillierKeyPair(key_bits, rng);
  const crypto::PaillierCrtEncryptor crt(kp.pub, kp.priv);
  const crypto::BigInt m(int64_t{123456789});
  t.encrypt_public_s =
      MedianPerCall([&] { (void)kp.pub.Encrypt(m, rng); }, 5, 0.5);
  t.encrypt_crt_s = MedianPerCall([&] { (void)crt.Encrypt(m, rng); }, 5, 0.5);

  crypto::PaillierRandomnessPool pool(kp.pub);
  pool.AttachCrtEncryptor(crt);
  constexpr int kPooled = 64;
  pool.Refill(kPooled, rng);
  std::vector<double> pooled;
  for (int i = 0; i < kPooled; ++i) {
    const pem::Stopwatch one;
    (void)pool.Encrypt(m, rng);
    pooled.push_back(one.ElapsedSeconds());
  }
  t.encrypt_pooled_s = Median(std::move(pooled));

  const crypto::PaillierCiphertext c = kp.pub.Encrypt(m, rng);
  t.decrypt_s = MedianPerCall([&] { (void)kp.priv.Decrypt(c); }, 5, 0.5);
  // A Protocol 4 scalar: round(K / share) for K = 2^40 and a share of
  // a few hundred µkWh.
  const crypto::BigInt scalar(int64_t{(int64_t{1} << 40) / 777});
  t.scalar_mul_s =
      MedianPerCall([&] { (void)kp.pub.ScalarMul(c, scalar); }, 5, 0.5);

  std::unique_ptr<pem::net::Transport> bus =
      pem::net::MakeTransport(pem::net::TransportKind::kSerialBus, 2);
  pem::net::Endpoint garbler = bus->endpoint(0);
  pem::net::Endpoint evaluator = bus->endpoint(1);
  uint64_t x = 1000;
  t.compare_s = MedianPerCall(
      [&] {
        (void)crypto::SecureCompareLess(garbler, x, evaluator, 2000 - x,
                                        compare, rng);
        ++x;
      },
      5, 1.0);
  return t;
}

double TimeFrame(const pem::net::ExecutionPolicy& policy,
                 size_t payload_bytes) {
  if (policy.transport_kind == pem::net::TransportKind::kProcess) {
    return TimeFrameForked(payload_bytes);
  }
  std::unique_ptr<pem::net::Transport> bus =
      pem::net::MakeTransport(policy.transport_kind, 2);
  pem::net::Endpoint sender = bus->endpoint(0);
  pem::net::Endpoint receiver = bus->endpoint(1);
  const std::vector<uint8_t> payload(payload_bytes, 0xA5);
  return MedianPerCall(
      [&] {
        sender.Send(1, kFrameTag, payload);
        (void)receiver.Receive();
      },
      20, 0.2, 64);
}

}  // namespace pembench
