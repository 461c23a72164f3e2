#include "canely/driver.hpp"

namespace canely {

CanDriver::CanDriver(can::Controller& controller, sim::Engine& engine)
    : controller_{controller}, engine_{engine} {
  controller_.set_client(this);
}

void CanDriver::can_data_req(const Mid& mid,
                             std::span<const std::uint8_t> data) {
  controller_.request_tx(
      can::Frame::make_data(mid.encode(), data, can::IdFormat::kExtended));
}

void CanDriver::can_rtr_req(const Mid& mid) {
  controller_.request_tx(
      can::Frame::make_remote(mid.encode(), 0, can::IdFormat::kExtended));
}

std::size_t CanDriver::can_abort_req(const Mid& mid) {
  const std::uint32_t id = mid.encode();
  return controller_.abort_matching([id](const can::Frame& f) {
    return f.format == can::IdFormat::kExtended && f.id == id;
  });
}

void CanDriver::on_data_ind(MsgType type, DataIndHandler handler) {
  data_ind_[slot(type)] = std::move(handler);
}

void CanDriver::on_rtr_ind(MsgType type, RtrIndHandler handler) {
  rtr_ind_[slot(type)] = std::move(handler);
}

void CanDriver::on_data_cnf(MsgType type, CnfHandler handler) {
  data_cnf_[slot(type)] = std::move(handler);
}

void CanDriver::on_rtr_cnf(MsgType type, CnfHandler handler) {
  rtr_cnf_[slot(type)] = std::move(handler);
}

void CanDriver::on_data_nty(DataNtyHandler handler) {
  data_nty_.push_back(std::move(handler));
}

void CanDriver::on_rx(const can::Frame& frame, bool own) {
  const auto mid = Mid::decode(frame);
  if (!mid.has_value()) return;  // non-CANELy traffic
  if (frame.remote) {
    if (auto& h = rtr_ind_[slot(mid->type)]; h) h(*mid, own);
  } else {
    // The .nty extension fires for every data frame, before the data
    // indication, own transmissions included (§5, §6.3).
    for (auto& h : data_nty_) h(*mid);
    if (auto& h = data_ind_[slot(mid->type)]; h) h(*mid, frame.payload(), own);
  }
}

void CanDriver::on_tx_confirm(const can::Frame& frame) {
  const auto mid = Mid::decode(frame);
  if (!mid.has_value()) return;
  if (frame.remote) {
    if (auto& h = rtr_cnf_[slot(mid->type)]; h) h(*mid);
  } else {
    if (auto& h = data_cnf_[slot(mid->type)]; h) h(*mid);
  }
}

void CanDriver::on_bus_off() {
  if (bus_off_) bus_off_();
}

}  // namespace canely
