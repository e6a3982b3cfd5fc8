// Differential conformance oracle: the same packet stream through every
// implementation of the paper's datapath, with byte-exact agreement
// enforced at each layer.
//
// Four engines per direction:
//   * scalar_ref     — the seed-era byte/bit-at-a-time reference
//                      (fastpath/scalar_ref), plus an independent scalar
//                      re-implementation of the header/FCS assembly;
//   * SWAR fastpath  — the word-parallel kernels in fastpath/stuff_fast,
//                      called directly so they stay pinned to that tier;
//   * SIMD engine    — the runtime-dispatched fastpath::EscapeEngine at its
//                      best detected tier (VBMI2/AVX2/SSSE3/SSE2 where
//                      available), the engine behind hdlc::stuff /
//                      hdlc::encode_into;
//   * p5 pipeline    — the cycle-level Escape Generate / Escape Detect byte
//                      sorters (and, for full receive, a whole P5 device).
//
// encode() proves the four produce the identical stuffed image and FCS;
// decode() proves the four recover the identical frame content (and agree
// on dangling-escape aborts); receive() proves a whole wire stream —
// possibly mangled by a FaultyLine — yields the identical accepted-frame
// sequence from the software stacks and the cycle-accurate receiver, i.e. a
// corrupted frame is never delivered as good payload by any engine unless
// every engine delivers it.
//
// Adding a fifth engine: implement the stuff/destuff pair, append its
// output to the comparison sets in diff_oracle.cpp — the oracle's result
// structs and every suite that uses them pick it up unchanged (TESTING.md
// has the walk-through).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fastpath/scalar_ref.hpp"
#include "hdlc/frame.hpp"
#include "p5/config.hpp"
#include "p5/control.hpp"
#include "p5/escape_detect.hpp"
#include "p5/escape_generate.hpp"
#include "ppp/vj.hpp"
#include "rtl/fifo.hpp"
#include "rtl/simulator.hpp"
#include "sonet/spe.hpp"
#include "testing/fault.hpp"

namespace p5::testing {

namespace detail {
struct GenRig;
struct DetRig;
}  // namespace detail

/// One-shot: stream a frame of `content` through a fresh cycle-level Escape
/// Generate unit and return the stuffed image.
[[nodiscard]] Bytes escape_generate_stream(unsigned lanes, BytesView content,
                                           const hdlc::Accm& accm);

struct DetectStreamResult {
  Bytes data;
  bool abort = false;  ///< dangling escape at EOF (RFC 1662 invalid sequence)
};
/// One-shot: stream a stuffed frame (no flags) through a fresh cycle-level
/// Escape Detect unit.
[[nodiscard]] DetectStreamResult escape_detect_stream(unsigned lanes, BytesView stuffed);

class DiffOracle {
 public:
  explicit DiffOracle(hdlc::FrameConfig cfg = {}, unsigned lanes = 4);
  ~DiffOracle();
  DiffOracle(const DiffOracle&) = delete;
  DiffOracle& operator=(const DiffOracle&) = delete;

  struct EncodeResult {
    Bytes content;  ///< unstuffed frame content incl. FCS (agreed by all engines)
    Bytes stuffed;  ///< stuffed image (agreed by all engines)
    Bytes wire;     ///< flag + stuffed + flag, from the fused encoder
    bool agree = true;
    std::string diagnosis;  ///< first divergence, engine-labelled
  };
  /// Encode one packet through all transmit engines and diff the results.
  [[nodiscard]] EncodeResult encode(u16 protocol, BytesView payload);

  struct DecodeResult {
    Bytes recovered;  ///< destuffed content (agreed by all engines)
    bool ok = true;   ///< false: dangling escape (all engines must concur)
    bool agree = true;
    std::string diagnosis;
  };
  /// Decode a stuffed frame body (no flags) through all receive engines.
  [[nodiscard]] DecodeResult decode(BytesView stuffed);

  struct Delivery {
    u16 protocol = 0;
    Bytes payload;
    bool operator==(const Delivery&) const = default;
  };
  struct ReceiveResult {
    std::vector<Delivery> delivered;  ///< accepted frames, in arrival order
    bool agree = true;
    std::string diagnosis;
  };
  /// Run a raw flag-delimited wire stream (clean or faulted) through the
  /// software receive stack (scalar, SWAR, and dispatched-SIMD destuffers)
  /// and a cycle-accurate P5 device; all four must accept the same frames.
  /// Requires an uncompressed-header config (the P5 has no ACFC/PFC).
  /// The stream is padded with flag fill to a whole number of `lanes`-octet
  /// words (the P5 PHY moves whole words), identically for every engine.
  [[nodiscard]] ReceiveResult receive(BytesView wire);

  // ---- fifth leg: whole-endpoint device-tier equivalence -----------------

  /// One packet of a tier-equivalence run (mirrors core::TxRequest).
  struct TierPacket {
    u16 protocol = 0x0021;
    Bytes payload;
    std::optional<u8> control;  ///< numbered-mode Control override
  };
  /// One accepted frame as a receiver tier reported it.
  struct TierDelivery {
    u16 protocol = 0;
    u8 control = 0;
    Bytes payload;
    bool operator==(const TierDelivery&) const = default;
  };
  /// Everything a receiver tier can say about a stream: the full loss ledger.
  /// Two tiers agree only when every field matches.
  struct TierLedger {
    core::RxCounters counters;
    u64 rx_overflow_drops = 0;
    sonet::DeframerStats deframer;
    bool operator==(const TierLedger&) const = default;
  };
  struct TierEquivalenceResult {
    bool agree = true;
    std::string diagnosis;  ///< first divergence, leg-labelled
    /// Deliveries all four receiver rigs agreed on (clean leg).
    std::vector<TierDelivery> delivered;
    TierLedger clean_ledger;     ///< agreed ledger of the clean cross-decode
    TierLedger fault_ledger;     ///< agreed ledger of the faulted leg (if any)
    u64 canonical_frames = 0;    ///< delineated stuffed frames on the wire
  };
  /// Whole-endpoint differential leg: drive the same packet sequence through
  /// a cycle-level P5SonetEndpoint and a batch FastP5Endpoint and prove
  /// canonical equivalence:
  ///   * the two SONET chunk streams carry the identical delineated
  ///     stuffed-frame sequence (inter-frame flag fill — pipeline restart
  ///     latency — is the only permitted difference; the x^43+1 scrambler
  ///     makes the raw streams incomparable byte-for-byte);
  ///   * each stream, cross-decoded by BOTH tiers' receivers, yields
  ///     identical deliveries (protocol, control, payload) and identical
  ///     loss ledgers, and on a clean line the deliveries equal the
  ///     submitted packets;
  ///   * with `fault`, the SAME corrupted chunk sequence is fed to both
  ///     tiers' receivers, which must agree on every delivery, every junk /
  ///     abort verdict and every resync — the ledgers match field-for-field.
  /// Static: builds fresh endpoints per call (state is the point here).
  [[nodiscard]] static TierEquivalenceResult tier_equivalence(
      const core::P5Config& cfg, sonet::StsSpec sts,
      std::span<const TierPacket> packets, const FaultSpec* fault = nullptr);

  // ---- VJ header-compression round-trip leg ------------------------------

  struct VjRoundTripResult {
    bool agree = true;
    std::string diagnosis;  ///< first violation, packet-indexed
    u64 packets = 0;
    u64 delivered = 0;       ///< datagrams the decompressor reconstructed
    u64 dropped_on_wire = 0; ///< compressed packets the fault model discarded
    u64 stale_delivered = 0; ///< post-drop deliveries caught by the TCP checksum
    u64 header_bytes_in = 0;
    u64 header_bytes_out = 0;
  };
  /// RFC 1144 conformance leg: stream `datagrams` through a fresh
  /// Compressor → Decompressor pair. On a clean wire (drop_chance = 0) every
  /// delivery must be byte-identical to its input — compress∘decompress is
  /// the identity. With injected loss the RFC 1144 §4 guarantee is checked
  /// instead: every delivery is either byte-identical to its input or
  /// carries an invalid TCP checksum (so end-to-end TCP would discard it —
  /// desync never yields a silently-accepted wrong datagram), and the next
  /// uncompressed-TCP sync restores exact delivery.
  [[nodiscard]] static VjRoundTripResult vj_roundtrip(const ppp::vj::VjConfig& cfg,
                                                      std::span<const Bytes> datagrams,
                                                      double drop_chance = 0.0,
                                                      u64 seed = 1);

  [[nodiscard]] const hdlc::FrameConfig& config() const { return cfg_; }
  [[nodiscard]] unsigned lanes() const { return lanes_; }

 private:
  [[nodiscard]] Bytes scalar_encapsulate(u16 protocol, BytesView payload) const;

  hdlc::FrameConfig cfg_;
  unsigned lanes_;
  fastpath::scalar::ByteTableCrc scalar_crc16_;
  fastpath::scalar::ByteTableCrc scalar_crc32_;
  /// The dispatched engines under test, at the best tier this host detects.
  fastpath::EscapeEngine simd_tx_;
  fastpath::EscapeEngine simd_rx_;
  hdlc::FrameArena arena_;
  /// Persistent cycle-level rigs: fifos + unit + simulator reused across
  /// packets so a 100k-packet sweep does not rebuild pipelines per frame.
  std::unique_ptr<detail::GenRig> gen_;
  std::unique_ptr<detail::DetRig> det_;
};

}  // namespace p5::testing
