#include "hdlc/frame.hpp"

#include "common/check.hpp"
#include "crc/crc_table.hpp"
#include "fastpath/stuff_fast.hpp"
#include "hdlc/stuffing.hpp"

namespace p5::hdlc {

namespace {
const crc::TableCrc& engine(const FrameConfig& cfg) {
  return cfg.fcs == FcsKind::kFcs32 ? crc::fcs32() : crc::fcs16();
}

/// Header octets preceding the payload: [address control] protocol (1 or 2
/// octets). Shared by encapsulate and the fused encoder so the two paths
/// cannot drift.
std::size_t fill_header(const FrameConfig& cfg, u16 protocol, u8 (&hdr)[4]) {
  std::size_t n = 0;
  if (!cfg.acfc) {
    hdr[n++] = cfg.address;
    hdr[n++] = cfg.control;
  }
  // PFC requires the low octet to be odd (RFC 1661 §2), which all assigned
  // protocols satisfy; fall back to two octets otherwise.
  if (cfg.pfc && protocol <= 0xFF && (protocol & 1u)) {
    hdr[n++] = static_cast<u8>(protocol);
  } else {
    hdr[n++] = static_cast<u8>(protocol >> 8);
    hdr[n++] = static_cast<u8>(protocol);
  }
  return n;
}

/// Append flag + stuff(content) + flag for one frame. Shared by the single
/// and batched encoders so the two wire paths cannot drift.
void encode_append(Bytes& wire, const fastpath::EscapeEngine& eng, const fastpath::SliceCrc& crc,
                   const FrameConfig& cfg, u16 protocol, BytesView payload) {
  wire.push_back(kFlag);

  u8 hdr[4];
  const std::size_t hn = fill_header(cfg, protocol, hdr);

  // One fused scan per region: the FCS register advances over the unstuffed
  // octets while the stuffed image is appended — no intermediate buffers.
  u32 state = cfg.crc_spec().init;
  state = eng.stuff_crc_append(wire, BytesView(hdr, hn), crc, state);
  state = eng.stuff_crc_append(wire, payload, crc, state);

  // FCS, least-significant octet first (RFC 1662 §C), stuffed like any other
  // content octets.
  const u32 fcs = (state ^ cfg.crc_spec().xorout) & cfg.crc_spec().mask();
  u8 tail[4];
  const std::size_t fn = cfg.fcs_bytes();
  for (std::size_t i = 0; i < fn; ++i) tail[i] = static_cast<u8>(fcs >> (8 * i));
  eng.stuff_append(wire, BytesView(tail, fn));

  wire.push_back(kFlag);
}
}  // namespace

Bytes encapsulate(const FrameConfig& cfg, u16 protocol, BytesView payload) {
  P5_EXPECTS(payload.size() <= cfg.max_payload);
  Bytes content;
  content.reserve(payload.size() + 8);
  u8 hdr[4];
  const std::size_t hn = fill_header(cfg, protocol, hdr);
  content.insert(content.end(), hdr, hdr + hn);
  append(content, payload);

  // FCS is computed over everything between the flags, and transmitted
  // least-significant octet first (RFC 1662 §C).
  const u32 fcs =
      engine(cfg).update(cfg.crc_spec().init, content) ^ cfg.crc_spec().xorout;
  if (cfg.fcs == FcsKind::kFcs32) {
    put_le32(content, fcs);
  } else {
    content.push_back(static_cast<u8>(fcs));
    content.push_back(static_cast<u8>(fcs >> 8));
  }
  return content;
}

BytesView encode_into(FrameArena& arena, const FrameConfig& cfg, u16 protocol,
                      BytesView payload) {
  P5_EXPECTS(payload.size() <= cfg.max_payload);
  const fastpath::SliceCrc& crc = engine(cfg).slicer();
  const fastpath::EscapeEngine& eng = arena.escape_engine(cfg.accm);

  Bytes& wire = arena.wire_;
  wire.clear();
  // Worst case every content octet escapes (2x), plus two flags, plus the
  // vector kernels' overhang slack. Reserving the worst case up front keeps
  // the hot loop free of reallocation checks; the capacity is retained
  // across frames, so steady state never allocates.
  wire.reserve(2 * (4 + payload.size() + cfg.fcs_bytes()) + 2 + fastpath::kStuffSlack);
  encode_append(wire, eng, crc, cfg, protocol, payload);
  return wire;
}

BytesView encode_batch_into(FrameArena& arena, const FrameConfig& cfg,
                            std::span<const BatchFrame> frames) {
  const fastpath::SliceCrc& crc = engine(cfg).slicer();
  const fastpath::EscapeEngine& eng = arena.escape_engine(cfg.accm);

  Bytes& wire = arena.wire_;
  wire.clear();

  // One worst-case reservation for the whole batch — the per-frame setup
  // (ACCM tables, CRC slicer, allocation headroom) is amortised across all
  // frames, which is where small-frame throughput goes.
  std::size_t worst = fastpath::kStuffSlack;
  for (const BatchFrame& f : frames) {
    P5_EXPECTS(f.payload.size() <= cfg.max_payload);
    worst += 2 * (4 + f.payload.size() + cfg.fcs_bytes()) + 2;
  }
  wire.reserve(worst);

  FrameConfig fcfg = cfg;
  for (const BatchFrame& f : frames) {
    fcfg.address = f.address ? *f.address : cfg.address;
    fcfg.control = f.control ? *f.control : cfg.control;
    encode_append(wire, eng, crc, fcfg, f.protocol, f.payload);
  }
  return wire;
}

Bytes build_wire_frame(const FrameConfig& cfg, u16 protocol, BytesView payload) {
  FrameArena arena;
  (void)encode_into(arena, cfg, protocol, payload);
  return std::move(arena.wire_);
}

ParseResult parse(const FrameConfig& cfg, BytesView content) {
  ParseResult r;
  const std::size_t fcs_len = cfg.fcs_bytes();
  if (content.size() < fcs_len + 1) {
    r.error = ParseError::kTooShort;
    return r;
  }
  if (!engine(cfg).check(content)) {
    r.error = ParseError::kBadFcs;
    return r;
  }

  std::size_t off = 0;
  if (!cfg.acfc) {
    // Uncompressed header required. The address comparison doubles as the
    // MAPOS address filter: the P5's Address register is programmable and
    // frames for other stations are dropped here.
    if (content.size() - fcs_len < 2) {
      r.error = ParseError::kTooShort;
      return r;
    }
    if (content[0] != cfg.address && content[0] != kDefaultAddress) {
      // 0xFF stays valid as the all-stations (broadcast) address.
      r.error = ParseError::kBadAddress;
      return r;
    }
    if (content[1] != cfg.control) {
      r.error = ParseError::kBadControl;
      return r;
    }
    off = 2;
  } else if (content.size() - fcs_len >= 2 && content[0] == cfg.address &&
             content[1] == cfg.control) {
    // ACFC negotiated but the peer sent the header anyway — accept it
    // (RFC 1661 §6.6).
    off = 2;
  }

  if (off >= content.size() - fcs_len) {
    r.error = ParseError::kTooShort;
    return r;
  }

  ParsedFrame f;
  const u8 p0 = content[off];
  if (p0 & 1u) {
    // Compressed (single-octet) protocol: assigned values have an even
    // high octet and odd low octet, so an odd first octet means PFC.
    f.protocol = p0;
    off += 1;
  } else {
    if (off + 2 > content.size() - fcs_len) {
      r.error = ParseError::kTooShort;
      return r;
    }
    f.protocol = get_be16(content, off);
    off += 2;
  }

  const std::size_t payload_len = content.size() - fcs_len - off;
  if (payload_len > cfg.max_payload) {
    r.error = ParseError::kTooLong;
    return r;
  }
  f.payload.assign(content.begin() + static_cast<std::ptrdiff_t>(off),
                   content.end() - static_cast<std::ptrdiff_t>(fcs_len));
  r.frame = std::move(f);
  return r;
}

}  // namespace p5::hdlc
