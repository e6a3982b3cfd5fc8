#include "net/tunif/tun_bridge.hpp"

#include "ppp/protocols.hpp"

namespace p5::net::tunif {

using ppp::kProtoIpv4;
using ppp::kProtoVjComp;
using ppp::kProtoVjUncomp;

TunBridge::TunBridge(transport::EventLoop& loop, TunDevice& tun,
                     core::SonetEndpoint& ep, TunBridgeConfig cfg)
    : loop_(loop), tun_(tun), ep_(ep), cfg_(cfg) {
  if (cfg_.vj) {
    vj_comp_ = std::make_unique<ppp::vj::Compressor>();
    vj_decomp_ = std::make_unique<ppp::vj::Decompressor>();
  }
  if (tun_.is_open()) {
    loop_.add_fd(tun_.fd(), transport::kReadable, [this](u32) { drain_tun(); });
    fd_registered_ = true;
  }
}

TunBridge::~TunBridge() {
  if (fd_registered_) loop_.remove_fd(tun_.fd());
}

std::size_t TunBridge::drain_tun() {
  std::size_t read = 0;
  Bytes packet;
  while (true) {
    const ReadStatus st = tun_.read_packet(packet);
    if (st != ReadStatus::kPacket) break;
    ++read;
    ++stats_.tun_rx_packets;
    stats_.tun_rx_bytes += packet.size();
    (void)offer(std::move(packet));
    packet = Bytes{};
  }
  return read;
}

bool TunBridge::offer(Bytes&& datagram) {
  u16 protocol = kProtoIpv4;
  Bytes packet;
  if (vj_comp_) {
    const ppp::vj::Compressor::Result r = vj_comp_->compress(datagram);
    if (r.cls == ppp::vj::PacketClass::kCompressedTcp) protocol = kProtoVjComp;
    if (r.cls == ppp::vj::PacketClass::kUncompressedTcp) protocol = kProtoVjUncomp;
    packet = r.packet;
  } else {
    packet = std::move(datagram);
  }
  if (!backlog_.empty()) {
    // Keep order: new datagrams go behind the parked ones.
    if (backlog_.size() >= cfg_.backlog_limit) {
      ++stats_.dropped_backlog;
      return false;
    }
    backlog_.push_back({protocol, std::move(packet)});
    return true;
  }
  if (ep_.submit_datagram(protocol, packet)) {
    ++stats_.submitted;
    return true;
  }
  if (backlog_.size() >= cfg_.backlog_limit) {
    ++stats_.dropped_backlog;
    return false;
  }
  backlog_.push_back({protocol, std::move(packet)});
  return true;
}

std::size_t TunBridge::pump() {
  while (!backlog_.empty()) {
    Parked& p = backlog_.front();
    if (!ep_.submit_datagram(p.protocol, p.packet)) break;
    ++stats_.submitted;
    backlog_.pop_front();
  }
  std::size_t written = 0;
  while (auto d = ep_.reap_datagram()) {
    deliver_to_kernel(d->protocol, d->payload);
    ++written;
  }
  return written;
}

void TunBridge::deliver_to_kernel(u16 protocol, BytesView payload) {
  Bytes decompressed;
  BytesView datagram = payload;
  switch (protocol) {
    case kProtoIpv4:
      break;
    case kProtoVjComp:
    case kProtoVjUncomp: {
      if (!vj_decomp_) {
        ++stats_.dropped_non_ip;  // far end compresses, we don't: no mapping
        return;
      }
      const auto cls = protocol == kProtoVjComp
                           ? ppp::vj::PacketClass::kCompressedTcp
                           : ppp::vj::PacketClass::kUncompressedTcp;
      auto out = vj_decomp_->decompress(cls, payload);
      if (!out) {
        ++stats_.vj_tossed;
        return;
      }
      decompressed = std::move(*out);
      datagram = decompressed;
      break;
    }
    default:
      ++stats_.dropped_non_ip;
      return;
  }
  if (delivered_tap_) delivered_tap_(datagram);
  if (!tun_.write_packet(datagram)) {
    ++stats_.tun_write_failures;
    return;
  }
  ++stats_.delivered_packets;
  stats_.delivered_bytes += datagram.size();
}

}  // namespace p5::net::tunif
