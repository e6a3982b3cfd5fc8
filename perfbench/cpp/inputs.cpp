#include "inputs.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "hdlc/frame.hpp"
#include "p5/endpoint.hpp"

namespace perfbench {

using p5::Bytes;
using p5::BytesView;
using p5::u64;
using p5::u8;

namespace {

constexpr p5::u16 kIpv4 = 0x0021;

/// Body sizes: the fixed size, or IMIX 40/576/1500 B in an exact 7:4:1
/// proportion whose order the seed shuffles — every seed offers the same
/// byte mix, so goodput compares across seeds.
std::vector<std::size_t> draw_sizes(const DatagramSpec& spec, p5::Xoshiro256& rng) {
  std::vector<std::size_t> sizes(spec.templates, spec.fixed_bytes);
  if (spec.mix == SizeMix::kFixed) return sizes;
  static constexpr std::size_t kImix[12] = {40, 40, 40, 40, 40, 40, 40, 576, 576, 576, 576, 1500};
  for (std::size_t i = 0; i < sizes.size(); ++i) sizes[i] = kImix[i % 12];
  for (std::size_t i = sizes.size(); i > 1; --i) std::swap(sizes[i - 1], sizes[rng.below(i)]);
  return sizes;
}

void stamp(Bytes& p, u64 seq) {
  for (std::size_t i = 0; i < DatagramSet::kSeqBytes; ++i) p[i] = static_cast<u8>(seq >> (8 * i));
}

}  // namespace

DatagramSet::DatagramSet(const DatagramSpec& spec, u64 seed) {
  p5::Xoshiro256 rng(seed);
  p5::hdlc::FrameConfig fcfg;  // the fast tier's defaults: FCS-32, SONET ACCM
  const std::vector<std::size_t> sizes = draw_sizes(spec, rng);
  bodies_.reserve(spec.templates);
  wire_bytes_.reserve(spec.templates);
  for (std::size_t i = 0; i < spec.templates; ++i) {
    const std::size_t len = std::max(sizes[i], kSeqBytes);
    bodies_.push_back(p5::bench::density_payload(len, spec.escape_density, rng.next()));
    wire_bytes_.push_back(p5::hdlc::build_wire_frame(fcfg, kIpv4, make(i)).size());
  }
}

Bytes DatagramSet::make(u64 seq) const {
  Bytes p = bodies_[seq % bodies_.size()];
  stamp(p, seq);
  return p;
}

bool DatagramSet::check(BytesView got, u64& seq_out) const {
  if (got.size() < kSeqBytes) return false;
  u64 seq = 0;
  for (std::size_t i = 0; i < kSeqBytes; ++i) seq |= u64{got[i]} << (8 * i);
  seq_out = seq;
  const Bytes& body = bodies_[seq % bodies_.size()];
  return got.size() == body.size() &&
         std::memcmp(got.data() + kSeqBytes, body.data() + kSeqBytes, body.size() - kSeqBytes) == 0;
}

SinkStream encode_sink_stream(const DatagramSet& set, std::size_t dgrams, p5::sonet::StsSpec sts) {
  auto ep = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  SinkStream s;
  s.dgrams = dgrams;
  // Lead-in idle fill: the far deframer hunts for alignment and the x^43+1
  // descrambler resynchronises inside flags, never inside a datagram.
  for (int i = 0; i < 2; ++i) s.chunks.push_back(ep->pull_frame());
  std::size_t next = 0;
  while (next < dgrams) {
    while (next < dgrams && ep->tx_has_room(set.payload_bytes(next))) {
      if (!ep->submit_datagram(kIpv4, set.make(next))) break;
      s.payload_bytes += set.payload_bytes(next);
      s.data_wire_bytes += set.wire_bytes(next);
      ++next;
    }
    s.chunks.push_back(ep->pull_frame());
  }
  while (ep->tx_pending()) s.chunks.push_back(ep->pull_frame());
  // Trailing idle fill closes the last datagram's flag before the splice.
  for (int i = 0; i < 2; ++i) s.chunks.push_back(ep->pull_frame());

  // Which chunk completes each datagram: decode chunk by chunk.
  auto rx = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  for (std::size_t c = 0; c < s.chunks.size(); ++c) {
    rx->push_line(BytesView(s.chunks[c].data(), s.chunks[c].size()));
    while (auto d = rx->reap_datagram()) {
      u64 seq = 0;
      if (!set.check(d->payload, seq) || seq != s.chunk_of.size()) {
        throw std::runtime_error("sink stream: datagram " + std::to_string(s.chunk_of.size()) +
                                 " did not decode exactly");
      }
      s.chunk_of.push_back(c);
    }
  }
  if (s.chunk_of.size() != dgrams) throw std::runtime_error("sink stream: datagrams missing");
  if (replay_sink_stream(s, set, sts, 2) != 2 * dgrams)
    throw std::runtime_error("sink stream: the loop splice loses datagrams");
  return s;
}

std::optional<u64> SinkOrder::accept(const SinkStream& s, u64 seq, u64 chunks_sent) {
  if (seq >= s.dgrams) return std::nullopt;
  // The device only ever drops, and TCP keeps order: a number below the
  // expected one opens the next segment.
  const u64 loop = seq < expect ? loops + 1 : loops;
  const u64 chunk = loop * s.chunks.size() + s.chunk_of[seq];
  if (chunk >= chunks_sent) return std::nullopt;
  loops = loop;
  expect = seq + 1;
  return chunk;
}

std::size_t replay_sink_stream(const SinkStream& stream, const DatagramSet& set,
                               p5::sonet::StsSpec sts, unsigned passes) {
  auto rx = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  std::size_t exact = 0;
  u64 expect = 0;
  for (unsigned p = 0; p < passes; ++p) {
    for (const Bytes& chunk : stream.chunks) {
      rx->push_line(BytesView(chunk.data(), chunk.size()));
      while (auto d = rx->reap_datagram()) {
        u64 seq = 0;
        if (set.check(d->payload, seq) && seq == expect % stream.dgrams) ++exact;
        ++expect;
      }
    }
  }
  return exact;
}

}  // namespace perfbench
