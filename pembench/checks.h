// Per-window correctness checks.
//
// Each check compares one executed window against something computed
// apart from the crypto path — the plaintext clearing oracle, the
// wire frames the bus observer saw, the serial in-process twin of a
// forked run, the traced replica — or against a property the method
// must have.  A check appends one line per violation to `out`; a
// window with any line counts as one failed operation.  The checks are
// pure functions of their arguments, so the self-tests can feed them a
// record with one field corrupted.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "market/clearing.h"
#include "market/params.h"
#include "net/message.h"
#include "protocol/distribution.h"

namespace pembench {

using Failures = std::vector<std::string>;

// Fixed-point tolerances.  Both paths quantize net energies to the
// same µkWh grid first, so what is left is the Protocol 4 ratio
// rounding (K = 2^40) and floating-point summation order.
inline constexpr double kPriceTolerance = 1e-5;   // $/kWh
inline constexpr double kAmountTolerance = 1e-4;  // kWh and $
inline constexpr double kPaymentTolerance = 1e-9; // payment - price * energy

// One frame as the bus observer delivered it.  `amount` is the f64 a
// transfer or payment frame carries (e_ij or m_ji), 0 for other tags.
struct Frame {
  int64_t t_ns = 0;  // steady clock
  pem::net::AgentId from = 0;
  pem::net::AgentId to = 0;
  uint32_t type = 0;
  uint32_t framed_bytes = 0;
  double amount = 0.0;
};

Frame TapFrame(const pem::net::Message& m, int64_t t_ns);

// A short stable name for a message tag ("ring_hop", "gc_result", ...;
// "other" for a tag this benchmark does not know).
const char* TagName(uint32_t type);
// Every tag TagName knows, in a fixed order, then "other".
const std::vector<std::string>& TagNames();

// Cuts the tapped frame stream into consecutive windows by their
// reported bus_bytes: window i gets frames [bounds[i], bounds[i+1]).
// Frames left after the last window are charged to it.  Where a cut
// cannot land exactly on a window's byte count, that window's frames
// no longer sum to its bus_bytes, which CheckBytes reports.
std::vector<size_t> SplitByWindow(
    std::span<const Frame> frames,
    std::span<const pem::core::WindowRecord> windows);

const char* MarketTypeName(pem::market::MarketType t);

// The window's trades as they crossed the wire: every energy-transfer
// frame (seller -> buyer) paired with the payment frame of the same
// pair (buyer -> seller).  A frame without its partner is reported.
std::vector<pem::protocol::Trade> WireTrades(std::span<const Frame> frames,
                                             Failures& out);

// --- the checks -----------------------------------------------------

// Type, price, supply/demand totals, buyer cost and grid interaction
// equal the plaintext oracle's.
void CheckOracle(const pem::core::WindowRecord& got,
                 const pem::core::WindowRecord& oracle, Failures& out);

// The price lies in [price_floor, retail_price].
void CheckPriceRange(const pem::core::WindowRecord& got,
                     const pem::market::MarketParams& params, Failures& out);

// Individual rationality: buyers pay no more than the grid-only
// baseline.
void CheckRationality(const pem::core::WindowRecord& got, Failures& out);

// Traded energy equals min(E_s, E_b); every payment equals price x
// energy; no seller sells more than its supply and no buyer buys more
// than its demand.  Supplies and demands come from the oracle's
// per-agent outcome, the price from `got`.
void CheckTrades(std::span<const pem::protocol::Trade> trades,
                 const pem::core::WindowRecord& got,
                 const pem::market::MarketOutcome& oracle, Failures& out);

// The observer-tap byte sum equals the per-endpoint counters'.
void CheckBytes(uint64_t tapped, uint64_t counted, Failures& out);

// A forked window equals its serial in-process twin bit for bit:
// type, price, bus bytes and rng cursor.
void CheckTwin(const pem::core::WindowRecord& got,
               const pem::core::WindowRecord& twin, Failures& out);

// The window was audited (when two or more agents are on the market)
// and nobody was convicted.
void CheckAudited(const pem::core::WindowRecord& got, Failures& out);

// The traced replica reproduced the window bit for bit: type, price,
// bus bytes and rng cursor.
struct ReplicaOutcome {
  pem::market::MarketType type = pem::market::MarketType::kNoMarket;
  double price = 0.0;
  uint64_t rng_cursor = 0;
  uint64_t bus_bytes = 0;
};
void CheckReplica(const pem::core::WindowRecord& got,
                  const ReplicaOutcome& replica, Failures& out);

}  // namespace pembench
