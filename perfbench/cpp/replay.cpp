// Isolated layer replay: the workload's own datagrams through every layer
// of the served path on its own, so the time of the end-to-end run can be
// attributed to a specific layer.
#include <cstdio>
#include <string>
#include <vector>

#include "crc/crc_table.hpp"
#include "fastpath/escape_simd.hpp"
#include "hdlc/delineation.hpp"
#include "hdlc/frame.hpp"
#include "p5/endpoint.hpp"
#include "sonet/scrambler.hpp"
#include "sonet/spe.hpp"
#include "workloads.hpp"

namespace perfbench {

using p5::Bytes;
using p5::BytesView;

namespace {

constexpr p5::u16 kIpv4 = 0x0021;
constexpr std::size_t kBatch = 256;        ///< datagrams per replay pass
constexpr i64 kMinReplayNs = 60'000'000;   ///< each row repeats at least this long

/// Mean nanoseconds per call of `fn`, repeating until kMinReplayNs elapse.
template <typename Fn>
double ns_per_pass(Fn&& fn) {
  fn();  // warm: tables, arenas, branch predictors
  u64 passes = 0;
  const i64 t0 = now_ns();
  i64 t = t0;
  while (t - t0 < kMinReplayNs) {
    fn();
    ++passes;
    t = now_ns();
  }
  return static_cast<double>(t - t0) / static_cast<double>(passes);
}

struct Row {
  std::string name;
  int depth = 0;
  double ns_per_B = 0.0;  ///< per payload octet
  int parent = -1;
};

}  // namespace

void layer_replay(const DatagramSet& set, p5::sonet::StsSpec sts, double tunnel_MBps,
                  Report& out) {
  std::vector<Bytes> payloads;
  double payload_bytes = 0.0;
  for (std::size_t i = 0; i < kBatch; ++i) {
    payloads.push_back(set.make(i));
    payload_bytes += static_cast<double>(payloads.back().size());
  }
  const auto per_B = [&](double ns) { return ns / payload_bytes; };
  const std::size_t spe = sts.payload_bytes_per_frame();

  // ---- fastpath kernels
  const p5::fastpath::EscapeEngine engine(p5::hdlc::Accm::sonet());
  Bytes scratch;
  std::vector<Bytes> stuffed(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    engine.stuff_append(stuffed[i], BytesView(payloads[i].data(), payloads[i].size()));
  engine.reset_counters();
  const double stuff_ns = ns_per_pass([&] {
    for (const Bytes& p : payloads) {
      scratch.clear();
      engine.stuff_append(scratch, BytesView(p.data(), p.size()));
    }
  });
  const p5::fastpath::TierCounters& tc = engine.counters();
  const double windows = static_cast<double>(tc.clean_windows + tc.sparse_windows + tc.dense_windows);
  const double dense_frac = windows > 0 ? static_cast<double>(tc.dense_windows) / windows : 0.0;
  const double destuff_ns = ns_per_pass([&] {
    for (const Bytes& s : stuffed) {
      scratch.clear();
      (void)engine.destuff_append(scratch, BytesView(s.data(), s.size()));
    }
  });
  const p5::crc::TableCrc& fcs32 = p5::crc::fcs32();
  p5::u32 crc_sink = 0;
  const double fcs_ns = ns_per_pass([&] {
    for (const Bytes& p : payloads) crc_sink += fcs32.crc(BytesView(p.data(), p.size()));
  });

  // ---- hdlc: batched encode, then delineation of the resulting stream
  p5::hdlc::FrameConfig fcfg;
  p5::hdlc::FrameArena arena;
  std::vector<p5::hdlc::BatchFrame> frames;
  for (const Bytes& p : payloads) frames.push_back({kIpv4, BytesView(p.data(), p.size()), {}, {}});
  const std::span<const p5::hdlc::BatchFrame> all(frames);
  const double encode_ns = ns_per_pass([&] {
    for (std::size_t i = 0; i < kBatch; i += 64)
      (void)p5::hdlc::encode_batch_into(arena, fcfg, all.subspan(i, 64));
  });
  Bytes wire;
  for (std::size_t i = 0; i < kBatch; i += 64) {
    const BytesView w = p5::hdlc::encode_batch_into(arena, fcfg, all.subspan(i, 64));
    wire.insert(wire.end(), w.begin(), w.end());
  }
  wire.resize((wire.size() + spe - 1) / spe * spe, p5::hdlc::kFlag);  // whole SPEs
  std::size_t delineated = 0;
  p5::hdlc::Delineator delin([&](BytesView) { ++delineated; }, 4, std::size_t{1} << 20);
  const double delineate_ns = ns_per_pass([&] {
    for (std::size_t off = 0; off < wire.size(); off += spe)
      delin.push(BytesView(wire.data() + off, spe));
  });

  // ---- sonet: x^43+1 scrambler both ways, framer and deframer
  p5::sonet::SelfSyncScrambler43 scr, dscr;
  Bytes scrambled;
  const double scramble_ns = ns_per_pass([&] {
    scrambled.clear();
    scr.scramble_append(scrambled, BytesView(wire.data(), wire.size()));
  });
  Bytes descrambled;
  const double descramble_ns = ns_per_pass([&] {
    for (std::size_t off = 0; off < scrambled.size(); off += spe)
      dscr.descramble_to(descrambled, BytesView(scrambled.data() + off, spe));
  });
  const std::size_t spes = wire.size() / spe;
  std::size_t src_off = 0;
  p5::sonet::SonetFramer framer(sts, [&](std::size_t n) {
    Bytes piece(scrambled.begin() + static_cast<std::ptrdiff_t>(src_off),
                scrambled.begin() + static_cast<std::ptrdiff_t>(src_off + n));
    src_off = (src_off + n) % scrambled.size();
    return piece;
  });
  std::vector<Bytes> line;
  const double framer_ns = ns_per_pass([&] {
    line.clear();
    for (std::size_t f = 0; f < spes; ++f) line.push_back(framer.next_frame());
  });
  std::size_t deframed = 0;
  p5::sonet::SonetDeframer deframer(sts, [&](BytesView) { ++deframed; });
  const double deframer_ns = ns_per_pass([&] {
    for (const Bytes& f : line) deframer.push(BytesView(f.data(), f.size()));
  });

  // ---- p5: TX-only, RX-only and the socketless pair
  const SinkStream stream = encode_sink_stream(set, kBatch, sts);
  const double stream_payload = static_cast<double>(stream.payload_bytes);
  auto tx_ep = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  const double tx_ns = ns_per_pass([&] {
    std::size_t next = 0;
    while (next < kBatch || tx_ep->tx_pending()) {
      while (next < kBatch && tx_ep->tx_has_room(payloads[next].size()))
        (void)tx_ep->submit_datagram(kIpv4, payloads[next++]);
      (void)tx_ep->pull_frame();
    }
  });
  auto rx_ep = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  std::size_t rx_got = 0;
  const double rx_ns = ns_per_pass([&] {
    for (const Bytes& c : stream.chunks) {
      rx_ep->push_line(BytesView(c.data(), c.size()));
      while (auto d = rx_ep->reap_datagram()) ++rx_got;
    }
  });
  auto pa = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  auto pb = p5::core::make_sonet_endpoint(p5::core::DeviceTier::kFast, {}, sts);
  std::size_t pair_got = 0;
  const double pair_ns = ns_per_pass([&] {
    std::size_t next = 0;
    while (next < kBatch || pa->tx_pending()) {
      while (next < kBatch && pa->tx_has_room(payloads[next].size()))
        (void)pa->submit_datagram(kIpv4, payloads[next++]);
      const Bytes f = pa->pull_frame();
      pb->push_line(BytesView(f.data(), f.size()));
      while (auto d = pb->reap_datagram()) ++pair_got;
    }
  });
  // Printing what the replay produced also keeps every timed result live.
  std::printf("layer replay: %zu frames delineated, %zu SPEs deframed, %zu datagrams via RX-only, "
              "%zu via the socketless pair (FCS sum %08x)\n",
              delineated, deframed, rx_got, pair_got, crc_sink);

  const double tx_only_MBps = payload_bytes / tx_ns * 1e3;
  const double rx_only_MBps = stream_payload / rx_ns * 1e3;
  const double pair_MBps = payload_bytes / pair_ns * 1e3;

  out.add("fastpath.stuff_ns_per_B", per_B(stuff_ns), "ns/B");
  out.add("fastpath.destuff_ns_per_B", per_B(destuff_ns), "ns/B");
  out.add("fastpath.fcs32_ns_per_B", per_B(fcs_ns), "ns/B");
  out.add("fastpath.dense_window_frac", dense_frac, "ratio");
  out.add("hdlc.encode_batch_ns_per_B", per_B(encode_ns), "ns/B");
  out.add("hdlc.delineate_ns_per_B", per_B(delineate_ns), "ns/B");
  out.add("hdlc.wire_expansion", static_cast<double>(stream.data_wire_bytes) / stream_payload,
          "ratio");
  out.add("sonet.scramble43_ns_per_B", per_B(scramble_ns), "ns/B");
  out.add("sonet.descramble43_ns_per_B", per_B(descramble_ns), "ns/B");
  out.add("sonet.framer_us_per_frame", framer_ns / static_cast<double>(spes) * 1e-3, "us");
  out.add("sonet.deframer_us_per_frame", deframer_ns / static_cast<double>(spes) * 1e-3, "us");
  out.add("p5.tx_only_MBps", tx_only_MBps, "MB/s");
  out.add("p5.rx_only_MBps", rx_only_MBps, "MB/s");
  out.add("p5.pair_nosock_MBps", pair_MBps, "MB/s");

  // ---- where the time goes: every row in ns per payload octet
  std::vector<Row> rows;
  const auto add = [&](std::string name, double ns_per_B, int parent) {
    rows.push_back({std::move(name), parent < 0 ? 0 : rows[parent].depth + 1, ns_per_B, parent});
    return static_cast<int>(rows.size() - 1);
  };
  const int root = tunnel_MBps > 0 ? add("transport: tunnel pair over TCP (live)", 1e3 / tunnel_MBps, -1)
                                   : -1;
  const int pair = add("p5: endpoint pair, no sockets", 1e3 / pair_MBps, root);
  const int tx = add("p5: TX only (submit + pull_frame)", 1e3 / tx_only_MBps, pair);
  add("hdlc: encode_batch_into", per_B(encode_ns), tx);
  add("sonet: scramble x^43+1", per_B(scramble_ns), tx);
  add("sonet: SonetFramer::next_frame", per_B(framer_ns), tx);
  const int rx = add("p5: RX only (push_line + reap)", 1e3 / rx_only_MBps, pair);
  add("sonet: SonetDeframer::push", per_B(deframer_ns), rx);
  add("sonet: descramble x^43+1", per_B(descramble_ns), rx);
  add("hdlc: Delineator::push", per_B(delineate_ns), rx);
  add("fastpath: destuff", per_B(destuff_ns), rx);
  add("fastpath: FCS-32", per_B(fcs_ns), rx);
  std::printf("where the time goes (layer replay, ns per payload octet):\n");
  std::printf("  %-46s %10s %16s\n", "layer", "ns/B", "share_of_parent");
  for (const Row& r : rows) {
    const double share = r.parent < 0 ? 1.0 : r.ns_per_B / rows[r.parent].ns_per_B;
    std::printf("  %*s%-*s %10.3f %16.3f\n", 2 * r.depth, "", 46 - 2 * r.depth, r.name.c_str(),
                r.ns_per_B, share);
  }
  std::printf("  bottleneck half of the device: %s (TX %.1f MB/s, RX %.1f MB/s)\n",
              tx_only_MBps < rx_only_MBps ? "TX" : "RX", tx_only_MBps, rx_only_MBps);
}

}  // namespace perfbench
