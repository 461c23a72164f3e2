#pragma once
// The CAN standard layer and its CANELy extension (paper §5, Figure 4).
//
// This is the *only* interface the protocol suite sees: the Figure 4
// primitive set —
//
//   can-data.req / can-data.cnf / can-data.ind / can-data.nty
//   can-rtr.req  / can-rtr.cnf  / can-rtr.ind
//   can-abort.req
//
// `.ind` signals frame arrivals *including own transmissions* (the paper
// notes some controllers need low-level engineering for this; our
// controller model provides it).  `.nty` is the CANELy extension: it
// signals the arrival of any data frame without delivering the data —
// just the message control field — and is what lets ordinary application
// traffic double as heartbeats (§6.3).

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "can/controller.hpp"
#include "can/frame.hpp"
#include "canely/mid.hpp"
#include "sim/engine.hpp"

namespace canely {

/// The CAN standard layer + extension of Figure 4, bound to one node's
/// controller.  Multiple protocol entities (FDA, RHA, FD, MSH, clock
/// sync, application) register per-message-type handlers; the driver
/// demultiplexes by the type field of the mid.
class CanDriver final : public can::ControllerClient {
 public:
  using DataIndHandler =
      std::function<void(const Mid&, std::span<const std::uint8_t>, bool own)>;
  using RtrIndHandler = std::function<void(const Mid&, bool own)>;
  using CnfHandler = std::function<void(const Mid&)>;
  using DataNtyHandler = std::function<void(const Mid&)>;

  CanDriver(can::Controller& controller, sim::Engine& engine);

  [[nodiscard]] can::NodeId node() const { return controller_.node(); }
  [[nodiscard]] can::Controller& controller() { return controller_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  // -- request primitives ---------------------------------------------------

  /// can-data.req — queue a data frame carrying `data` under `mid`.
  void can_data_req(const Mid& mid, std::span<const std::uint8_t> data);

  /// can-rtr.req — queue a remote frame.  Several nodes may request the
  /// same remote frame simultaneously; the bus clusters them (§6.2).
  void can_rtr_req(const Mid& mid);

  /// can-abort.req — abort pending transmit requests with exactly this
  /// mid; returns how many were dropped ("effect only on pending
  /// requests", Fig. 4).
  std::size_t can_abort_req(const Mid& mid);

  // -- handler registration ---------------------------------------------------

  /// can-data.ind for a given message type (payload delivered).
  void on_data_ind(MsgType type, DataIndHandler handler);

  /// can-rtr.ind for a given message type.
  void on_rtr_ind(MsgType type, RtrIndHandler handler);

  /// can-data.cnf / can-rtr.cnf for a given message type.
  void on_data_cnf(MsgType type, CnfHandler handler);
  void on_rtr_cnf(MsgType type, CnfHandler handler);

  /// can-data.nty — arrival of ANY data frame (own included), control
  /// field only.  More than one subscriber allowed (failure detector,
  /// diagnostics, ...).
  void on_data_nty(DataNtyHandler handler);

  // -- ControllerClient (bus-facing) ----------------------------------------
  void on_rx(const can::Frame& frame, bool own) override;
  void on_tx_confirm(const can::Frame& frame) override;
  void on_bus_off() override;

  /// Bus-off notification for diagnostics / node facade.
  void set_bus_off_handler(std::function<void()> handler) {
    bus_off_ = std::move(handler);
  }

 private:
  static constexpr std::size_t kTypeSlots = 32;
  static std::size_t slot(MsgType t) { return static_cast<std::size_t>(t) % kTypeSlots; }

  /// The four per-type handler kinds, indexing index_.
  enum Kind : std::size_t { kDataInd, kRtrInd, kDataCnf, kRtrCnf, kKinds };

  /// Register `handler` for (`kind`, `type`) in `table`, replacing an
  /// earlier one for the same pair.
  template <typename Handler>
  void put(Kind kind, MsgType type, std::vector<Handler>& table,
           Handler handler) {
    std::uint8_t& at = index_[kind][slot(type)];
    if (at == 0) {
      table.push_back(std::move(handler));
      at = static_cast<std::uint8_t>(table.size());
    } else {
      table[at - 1] = std::move(handler);
    }
  }

  /// The handler registered for (`kind`, `type`), or null.
  template <typename Handler>
  Handler* find(Kind kind, MsgType type, std::vector<Handler>& table) {
    const std::uint8_t at = index_[kind][slot(type)];
    return at != 0 && table[at - 1] ? &table[at - 1] : nullptr;
  }

  can::Controller& controller_;
  sim::Engine& engine_;
  /// Per kind and type slot: 1 + the handler's position in its table,
  /// 0 = none.  Only the handlers a node registers (about ten) exist.
  std::array<std::array<std::uint8_t, kTypeSlots>, kKinds> index_{};
  std::vector<DataIndHandler> data_ind_;
  std::vector<RtrIndHandler> rtr_ind_;
  std::vector<CnfHandler> data_cnf_;
  std::vector<CnfHandler> rtr_cnf_;
  std::vector<DataNtyHandler> data_nty_;
  std::function<void()> bus_off_;
};

}  // namespace canely
