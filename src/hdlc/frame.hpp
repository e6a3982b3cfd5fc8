// HDLC-like PPP frame assembly and parsing (RFC 1662 framing around RFC 1661
// fields), with the programmability knobs the paper's OAM exposes:
//   * programmable Address octet (MAPOS compatibility, RFC 2171);
//   * 1- or 2-octet Protocol field (PFC negotiation);
//   * Address/Control field compression (ACFC);
//   * FCS-16 or FCS-32 (paper uses FCS-32 "for accuracy purposes").
#pragma once

#include <optional>
#include <span>

#include "common/types.hpp"
#include "crc/crc_spec.hpp"
#include "fastpath/escape_simd.hpp"
#include "hdlc/accm.hpp"

namespace p5::hdlc {

inline constexpr u8 kDefaultAddress = 0xFF;  ///< all-stations
inline constexpr u8 kDefaultControl = 0x03;  ///< unnumbered information (UI)

enum class FcsKind : u8 { kFcs16, kFcs32 };

struct FrameConfig {
  u8 address = kDefaultAddress;  ///< programmable for MAPOS unicast/multicast
  u8 control = kDefaultControl;
  bool acfc = false;          ///< compress (omit) address+control on transmit
  bool pfc = false;           ///< 1-octet protocol field when protocol <= 0xFF
  FcsKind fcs = FcsKind::kFcs32;
  Accm accm = Accm::sonet();
  std::size_t max_payload = 1500;  ///< negotiated MRU (RFC 1661 default)

  [[nodiscard]] const crc::CrcSpec& crc_spec() const {
    return fcs == FcsKind::kFcs32 ? crc::kFcs32 : crc::kFcs16;
  }
  [[nodiscard]] std::size_t fcs_bytes() const { return fcs == FcsKind::kFcs32 ? 4 : 2; }
};

/// Frame *content*: the octets between the flags, before stuffing:
/// [address control] protocol payload fcs.
[[nodiscard]] Bytes encapsulate(const FrameConfig& cfg, u16 protocol, BytesView payload);

/// One frame of a batched encode: protocol + payload, with optional
/// per-frame Address and Control overrides (MAPOS gives every frame its own
/// destination; numbered mode carries sequence numbers in Control) while the
/// rest of the config is shared.
struct BatchFrame {
  u16 protocol = 0;
  BytesView payload;
  std::optional<u8> address;
  std::optional<u8> control;
};

/// Reusable scratch for the zero-allocation encoder. Steady state (same-size
/// frames through the same arena) performs no heap allocation at all: the
/// wire buffer is cleared and refilled in place.
///
/// The arena also caches the ACCM-derived escape engine (dispatch tables and
/// tier selection), so per-frame setup is paid once per ACCM programming
/// instead of once per frame — the software analogue of the P5 keeping its
/// Escape Generate tables in OAM registers rather than rebuilding them per
/// packet.
class FrameArena {
 public:
  /// The last encoded wire image (valid until the next encode_into call).
  [[nodiscard]] const Bytes& wire() const { return wire_; }

  /// The cached transmit escape engine for `accm`, (re)derived only when the
  /// ACCM actually changes. Construction-time callers (e.g. the line-card
  /// channel) use this to hoist table derivation out of the hot loop.
  [[nodiscard]] const fastpath::EscapeEngine& escape_engine(const Accm& accm) {
    if (!tx_engine_ || tx_engine_->accm() != accm) tx_engine_.emplace(accm);
    return *tx_engine_;
  }

  /// The currently cached transmit engine, if any — telemetry readers peek
  /// at its dispatch-tier counters without forcing a (re)derivation.
  [[nodiscard]] const fastpath::EscapeEngine* cached_tx_engine() const {
    return tx_engine_ ? &*tx_engine_ : nullptr;
  }

 private:
  friend BytesView encode_into(FrameArena&, const FrameConfig&, u16, BytesView);
  friend BytesView encode_batch_into(FrameArena&, const FrameConfig&,
                                     std::span<const BatchFrame>);
  friend Bytes build_wire_frame(const FrameConfig&, u16, BytesView);
  Bytes wire_;
  std::optional<fastpath::EscapeEngine> tx_engine_;
};

/// Fused single-pass encoder: computes the FCS and stuffs in one scan of the
/// payload, writing flag + stuff(content) + flag straight into the arena with
/// no intermediate content/stuffed buffers. The wire image is byte-identical
/// to build_wire_frame. Returns a view into the arena, valid until the next
/// call with the same arena.
[[nodiscard]] BytesView encode_into(FrameArena& arena, const FrameConfig& cfg, u16 protocol,
                                    BytesView payload);

/// Full wire image: flag + stuff(content) + flag. Convenience wrapper over
/// encode_into that returns an owned buffer.
[[nodiscard]] Bytes build_wire_frame(const FrameConfig& cfg, u16 protocol, BytesView payload);

/// Batched encoder: encode every frame back-to-back into the arena with one
/// worst-case reservation and one escape-engine/CRC setup for the whole
/// batch. Returns the concatenated wire stream: frame after frame, each image
/// byte-identical to encode_into with the same (address-overridden) config.
[[nodiscard]] BytesView encode_batch_into(FrameArena& arena, const FrameConfig& cfg,
                                          std::span<const BatchFrame> frames);

enum class ParseError : u8 {
  kTooShort,
  kBadFcs,
  kBadAddress,
  kBadControl,
  kTooLong,
};

struct ParsedFrame {
  u16 protocol = 0;
  Bytes payload;
};

struct ParseResult {
  std::optional<ParsedFrame> frame;
  std::optional<ParseError> error;
  [[nodiscard]] bool ok() const { return frame.has_value(); }
};

/// Parse de-stuffed frame content (as produced by encapsulate / received by
/// the delineator+destuffer). Accepts ACFC/PFC-compressed headers whether or
/// not the config enables them on transmit, per RFC 1661 robustness rules.
[[nodiscard]] ParseResult parse(const FrameConfig& cfg, BytesView content);

}  // namespace p5::hdlc
