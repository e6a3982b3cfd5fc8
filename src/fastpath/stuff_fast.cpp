#include "fastpath/stuff_fast.hpp"

#include "fastpath/swar.hpp"

namespace p5::fastpath {

// All four kernels share one loop shape: skip clean 8-byte words with the
// SWAR predicates, bulk-copy the clean run, then process the (at most eight)
// octets of a flagged word — or the unaligned tail — with the exact scalar
// code. Dense-escape inputs therefore degrade to roughly the scalar loop
// (one word-load and one empty bulk-copy per eight octets of overhead)
// instead of paying a fresh scan per escape.

namespace {

/// Advance i over clean words; returns the first index whose word contains an
/// escape candidate (or a tail start past which < 8 octets remain).
inline std::size_t skip_clean_words(const u8* p, std::size_t i, std::size_t n, bool controls) {
  while (i + 8 <= n) {
    const u64 v = load_word(p + i);
    u64 m = eq_bytes(v, hdlc::kEscape) | eq_bytes(v, hdlc::kFlag);
    if (controls) m |= lt_bytes(v, 0x20);
    if (m != 0) break;
    i += 8;
  }
  return i;
}

}  // namespace

void stuff_append(Bytes& out, BytesView data, const hdlc::Accm& accm) {
  const u8* p = data.data();
  const std::size_t n = data.size();
  const bool controls = accm.map() != 0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t run = i;
    i = skip_clean_words(p, i, n, controls);
    if (i != run) out.insert(out.end(), p + run, p + i);
    const std::size_t stop = i + 8 < n ? i + 8 : n;
    for (; i < stop; ++i) {
      const u8 b = p[i];
      if (accm.must_escape(b)) {
        out.push_back(hdlc::kEscape);
        out.push_back(static_cast<u8>(b ^ hdlc::kXor));
      } else {
        out.push_back(b);
      }
    }
  }
}

bool destuff_append(Bytes& out, BytesView data) {
  const u8* p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t run = i;
    while (i + 8 <= n && eq_bytes(load_word(p + i), hdlc::kEscape) == 0) i += 8;
    if (i != run) out.insert(out.end(), p + run, p + i);
    const std::size_t stop = i + 8 < n ? i + 8 : n;
    for (; i < stop; ++i) {
      if (p[i] == hdlc::kEscape) {
        if (i + 1 == n) return false;  // dangling escape at end of frame
        // Lenient decode, matching the scalar reference: complement bit 6
        // whatever the escaped octet is (aborts never reach here — the
        // delineator splits on flags first). The escaped octet may live in
        // the next word; `stop` is only a scan hint, so stepping over it is
        // fine.
        ++i;
        out.push_back(static_cast<u8>(p[i] ^ hdlc::kXor));
      } else {
        out.push_back(p[i]);
      }
    }
  }
  return true;
}

u32 stuff_crc_append(Bytes& out, BytesView data, const hdlc::Accm& accm, const SliceCrc& crc,
                     u32 state) {
  const u8* p = data.data();
  const std::size_t n = data.size();
  const bool controls = accm.map() != 0;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t run = i;
    i = skip_clean_words(p, i, n, controls);
    state = crc.update(state, data.subspan(run, i - run));
    if (i != run) out.insert(out.end(), p + run, p + i);
    const std::size_t stop = i + 8 < n ? i + 8 : n;
    for (; i < stop; ++i) {
      const u8 b = p[i];
      state = crc.update_byte(state, b);
      if (accm.must_escape(b)) {
        out.push_back(hdlc::kEscape);
        out.push_back(static_cast<u8>(b ^ hdlc::kXor));
      } else {
        out.push_back(b);
      }
    }
  }
  return state & crc.spec().mask();
}

}  // namespace p5::fastpath
