// Word-parallel RFC 1662 octet stuffing/destuffing kernels.
//
// The wire image produced here is byte-identical to the scalar reference in
// fastpath/scalar_ref.hpp (and therefore to the seed implementation): the
// SWAR scan only changes *how fast* escape positions are found, never *which*
// octets are escaped. Escape-free runs are bulk-copied; the scalar path runs
// only around actual escapes.
#pragma once

#include "common/types.hpp"
#include "fastpath/slice_crc.hpp"
#include "hdlc/accm.hpp"

namespace p5::fastpath {

/// Append the stuffed image of `data` to `out`.
void stuff_append(Bytes& out, BytesView data, const hdlc::Accm& accm);

/// Append the destuffed image of `data` (which must not contain flags) to
/// `out`. Returns false on a dangling escape at end of input.
[[nodiscard]] bool destuff_append(Bytes& out, BytesView data);

/// Fused framer kernel: append the stuffed image of `data` to `out` while
/// advancing the FCS register over the *unstuffed* octets in the same scan.
/// Returns the new raw CRC state.
[[nodiscard]] u32 stuff_crc_append(Bytes& out, BytesView data, const hdlc::Accm& accm,
                                   const SliceCrc& crc, u32 state);

}  // namespace p5::fastpath
