// Standalone timings of the crypto primitives and of one frame through
// a transport backend, at the workload's sizes.  Each figure is the
// median of repeated single calls (fast calls are timed in batches).
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/secure_compare.h"
#include "net/transport.h"

namespace pembench {

struct CryptoTimes {
  double keygen_s = 0.0;            // GeneratePaillierKeyPair
  double encrypt_public_s = 0.0;    // PaillierPublicKey::Encrypt (r^n mod n^2)
  double encrypt_crt_s = 0.0;       // PaillierCrtEncryptor::Encrypt (owner)
  double encrypt_pooled_s = 0.0;    // PaillierRandomnessPool::Encrypt (online)
  double decrypt_s = 0.0;           // PaillierPrivateKey::Decrypt
  double scalar_mul_s = 0.0;        // ScalarMul by a Protocol 4 ratio scalar
  double compare_s = 0.0;           // SecureCompareLess over a 2-agent bus
};

CryptoTimes TimeCrypto(int key_bits,
                       const pem::crypto::SecureCompareConfig& compare,
                       uint64_t seed);

// One frame of `payload_bytes` sent by one agent and received by
// another through `policy`'s backend, via the public Transport API.
// The socketpair process backend runs a ping-pong between two child
// processes (parent relay router in between) and reports the child's
// mean; the in-process buses time a send and a receive.
double TimeFrame(const pem::net::ExecutionPolicy& policy,
                 size_t payload_bytes);

}  // namespace pembench
