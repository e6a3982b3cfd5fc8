// Table-driven CRC: the software fast path used by the protocol-layer code
// (src/hdlc, src/ppp, src/net) and an independent cross-check of the bitwise
// reference.
//
// `update` runs fastpath::SliceCrc (fastpath/slice_crc) instead of the
// seed's one-table byte loop: slicing-by-16 tables, and for FCS-32 buffers of
// 64 octets or more a carry-less-multiply kernel on hosts with PCLMULQDQ.
// The seed loop is preserved as fastpath::scalar::ByteTableCrc for
// differential tests and benches.
#pragma once

#include "common/types.hpp"
#include "crc/crc_spec.hpp"
#include "fastpath/slice_crc.hpp"

namespace p5::crc {

class TableCrc {
 public:
  explicit constexpr TableCrc(const CrcSpec& spec) : slicer_(spec) {}

  [[nodiscard]] const CrcSpec& spec() const { return slicer_.spec(); }

  [[nodiscard]] u32 update(u32 state, BytesView data) const { return slicer_.update(state, data); }

  [[nodiscard]] u32 crc(BytesView data) const { return update(spec().init, data) ^ spec().xorout; }

  [[nodiscard]] bool check(BytesView data_with_fcs) const {
    return update(spec().init, data_with_fcs) == spec().residue;
  }

  /// The underlying FCS engine (for fused kernels that interleave the CRC
  /// with other per-octet work).
  [[nodiscard]] const fastpath::SliceCrc& slicer() const { return slicer_; }

 private:
  fastpath::SliceCrc slicer_;
};

/// Process-wide instances for the two PPP checks.
[[nodiscard]] const TableCrc& fcs16();
[[nodiscard]] const TableCrc& fcs32();

}  // namespace p5::crc
