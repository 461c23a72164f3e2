#pragma once
// Fault scripts: the checker's deterministic description of "what goes
// wrong" in one run.
//
// A script is a list of events keyed on the bus's global transmission
// attempt counter (TxContext::tx_index) — the one coordinate that is a
// pure function of the simulation inputs, independent of wall-clock time
// or thread scheduling.  Each event says what happens to that attempt
// (inconsistent omission at a victim set, or a global error) and whether
// the primary transmitter crashes at the end of the frame, i.e. *before
// its retransmission* — the sender-crash half of the inconsistent message
// omission scenario FDA exists to fix (paper §6.1).
//
// The harness's injector (check::LoggingInjector, universe.hpp) plugs a
// script into the existing can::FaultInjector seam through
// script_verdict().  Crashing is not the injector's business (it only
// judges frames); the injector records a pending crash which the
// harness's bus observer applies at end-of-frame, after delivery, before
// the next arbitration — at that point the requeued retransmission is
// withdrawn by the crash (Controller::crash clears the transmit queue).

#include <cstdint>
#include <string>
#include <vector>

#include "can/fault.hpp"
#include "can/types.hpp"
#include "json/json.hpp"

namespace canely::check {

enum class FaultOp : std::uint8_t {
  kOmit,   ///< inconsistent omission: `victims` reject, the rest accept
  kError,  ///< global error: destroyed for everybody, CAN retransmits
};

/// One scripted fault, targeting one transmission attempt.
struct FaultEvent {
  std::uint64_t tx{0};        ///< global attempt index (TxContext::tx_index)
  FaultOp op{FaultOp::kOmit};
  can::NodeSet victims{};     ///< kOmit: receivers that reject the frame
  bool crash_sender{false};   ///< crash the primary transmitter at frame end

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

using FaultScript = std::vector<FaultEvent>;

/// The JSON array form shared by counterexample artifacts and frontier
/// files: [{"tx", "op": "omit"|"error", "victims": [ids], "crash_sender"}].
[[nodiscard]] json::Value script_json(const FaultScript& script);

/// Inverse of script_json(); throws std::runtime_error prefixed with
/// `what` on a malformed event.
[[nodiscard]] FaultScript parse_script(const json::Value& arr,
                                       const std::string& what);

/// The verdict `script` renders for attempt `ctx`: the first event whose
/// `tx` matches the attempt index fires (events are one-shot by
/// construction: attempt indices are unique within a run).  Sets `crash`
/// when that event crashes the sender.
[[nodiscard]] can::Verdict script_verdict(const FaultScript& script,
                                          const can::TxContext& ctx,
                                          bool& crash);

}  // namespace canely::check
