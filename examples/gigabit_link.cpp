// Gigabit IP over SDH/SONET — the paper's title scenario, end to end.
//
// Two P5 devices (32-bit datapath) are joined by an STS-48c path (2.488 Gbps
// line rate): PPP octet stream -> x^43+1 payload scrambling -> SPE mapping
// -> frame-synchronous scrambling -> an optical line with injected bit
// errors -> deframing -> the peer P5's receive pipeline. IMIX traffic runs
// both ways and the error accounting at every layer is reported. B's
// deliveries are recorded to gigabit_link.pcap (PPP linktype, stamped with
// device time) in the working directory.
//
//   build/examples/gigabit_link [ber]    (default ber = 1e-6)
#include <cstdio>
#include <cstdlib>
#include <set>

#include "net/capture/tap.hpp"
#include "net/traffic.hpp"
#include "p5/sonet_link.hpp"

int main(int argc, char** argv) {
  using namespace p5;

  const double ber = argc > 1 ? std::atof(argv[1]) : 1e-6;

  core::P5Config cfg;
  cfg.lanes = 4;
  sonet::LineConfig line;
  line.bit_error_rate = ber;
  line.seed = 2026;
  core::P5SonetLink link(cfg, sonet::kSts48c, line);

  std::printf("IP over SONET: STS-48c, line %.2f Mbps, PPP payload %.2f Mbps, BER %.1e\n",
              link.sts().line_rate_mbps(), link.sts().payload_rate_mbps(), ber);

  // Sinks checking payload integrity against what was sent; B also records
  // its deliveries to a pcap for offline inspection (tcpdump -r). Each record
  // is ff 03 proto payload, stamped with B's cycle count in device time.
  const char* const pcap_path = "gigabit_link.pcap";
  net::capture::CaptureTap tap({.nsec = true, .linktype = net::capture::kLinkPpp});
  if (!tap.open(pcap_path)) {
    std::fprintf(stderr, "gigabit_link: cannot create %s\n", pcap_path);
    return 1;
  }
  const double ns_per_cycle = 1000.0 / cfg.clock_mhz;  // 12.8 ns at 78.125 MHz
  Bytes record;
  std::set<Bytes> outstanding_ab, outstanding_ba;
  u64 delivered_ab = 0, delivered_ba = 0, corrupted = 0;
  link.b().set_rx_sink([&](core::RxDelivery d) {
    ++delivered_ab;
    record.assign({0xff, 0x03, static_cast<u8>(d.protocol >> 8), static_cast<u8>(d.protocol)});
    append(record, d.payload);
    tap.record_at(static_cast<u64>(static_cast<double>(link.b().cycle()) * ns_per_cycle), record);
    if (outstanding_ab.erase(d.payload) == 0) ++corrupted;
  });
  link.a().set_rx_sink([&](core::RxDelivery d) {
    ++delivered_ba;
    if (outstanding_ba.erase(d.payload) == 0) ++corrupted;
  });

  // IMIX traffic in both directions.
  net::ImixGenerator gen_a(1), gen_b(2);
  u64 sent = 0, sent_octets = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes da = gen_a.next_datagram();
    Bytes db = gen_b.next_datagram();
    sent_octets += da.size() + db.size();
    outstanding_ab.insert(da);
    outstanding_ba.insert(db);
    link.a().submit_datagram(0x0021, da);
    link.b().submit_datagram(0x0021, db);
    sent += 2;
  }

  // Move SONET frames until the queues drain (each frame carries ~37 kB).
  link.exchange_frames(12);
  link.a().drain_rx(2000);
  link.b().drain_rx(2000);

  std::printf("\ntraffic: %llu datagrams (%llu octets) sent, %llu delivered, %llu corrupt\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(sent_octets),
              static_cast<unsigned long long>(delivered_ab + delivered_ba),
              static_cast<unsigned long long>(corrupted));

  const auto& ls = link.line_ab_stats();
  std::printf("\nline A->B: %llu octets, %llu bit errors (measured BER %.2e)\n",
              static_cast<unsigned long long>(ls.octets),
              static_cast<unsigned long long>(ls.bit_errors),
              ls.octets ? static_cast<double>(ls.bit_errors) / (8.0 * ls.octets) : 0.0);

  const auto& ds = link.a_to_b_stats();
  std::printf("SONET B (rx): %llu frames in sync, %llu resyncs, B1/B2/B3 errs %llu/%llu/%llu\n",
              static_cast<unsigned long long>(ds.frames_in_sync),
              static_cast<unsigned long long>(ds.resyncs),
              static_cast<unsigned long long>(ds.b1_errors),
              static_cast<unsigned long long>(ds.b2_errors),
              static_cast<unsigned long long>(ds.b3_errors));

  auto report_p5 = [](const char* name, core::P5& dev) {
    std::printf("%s: frames ok %llu, fcs bad %llu, aborts %llu, runts %llu, "
                "escapes tx/rx %llu/%llu\n",
                name,
                static_cast<unsigned long long>(dev.rx_control().counters().frames_ok),
                static_cast<unsigned long long>(dev.rx_crc().bad_frames()),
                static_cast<unsigned long long>(dev.flag_delineator().counters().aborts),
                static_cast<unsigned long long>(dev.flag_delineator().counters().runts),
                static_cast<unsigned long long>(dev.escape_generate().escapes_inserted()),
                static_cast<unsigned long long>(dev.escape_detect().escapes_removed()));
  };
  report_p5("P5 A", link.a());
  report_p5("P5 B", link.b());

  tap.close();
  std::printf("\ncapture: %llu deliveries at B recorded to %s\n",
              static_cast<unsigned long long>(tap.stats().records), pcap_path);

  if (corrupted != 0) {
    std::printf("\nFAIL: corrupted datagrams slipped through the FCS\n");
    return 1;
  }
  std::printf("\nOK: every delivered datagram was bit-exact; losses were FCS-detected.\n");
  return 0;
}
