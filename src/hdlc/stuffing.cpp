#include "hdlc/stuffing.hpp"

#include <optional>

#include "fastpath/escape_simd.hpp"
#include "fastpath/stuff_fast.hpp"

namespace p5::hdlc {

namespace {

// The escape engine carries per-call dispatch telemetry, so an engine must
// not be shared across threads; these free functions are called from both
// the fabric and worker contexts of the threaded line card, hence one cached
// engine per thread. Stuff and destuff use separate slots: destuffing is
// ACCM-independent, so an ACCM change on the transmit side must not evict
// the receive engine (or vice versa).
const fastpath::EscapeEngine& tx_engine(const Accm& accm) {
  thread_local std::optional<fastpath::EscapeEngine> eng;
  if (!eng || eng->accm() != accm) eng.emplace(accm);
  return *eng;
}

const fastpath::EscapeEngine& rx_engine() {
  thread_local std::optional<fastpath::EscapeEngine> eng;
  if (!eng) eng.emplace(Accm::sonet());
  return *eng;
}

}  // namespace

Bytes stuff(BytesView data, const Accm& accm) {
  Bytes out;
  // Worst-case reservation (every octet escapes, 2x, plus vector-store
  // slack): never reallocates mid-loop, unlike the old "+ size/8" guess
  // which did at high escape density — and needs no counting pre-pass.
  out.reserve(2 * data.size() + fastpath::kStuffSlack);
  tx_engine(accm).stuff_append(out, data);
  return out;
}

DestuffResult destuff(BytesView data) {
  DestuffResult r;
  r.data.reserve(data.size() + fastpath::kStuffSlack);
  // Lenient decode: complement bit 6 whatever the escaped octet is. A
  // 0x7D-0x7E (escape-then-flag) abort never reaches here because the
  // delineator splits frames on the flag first and reports the abort itself.
  r.ok = rx_engine().destuff_append(r.data, data);
  return r;
}

}  // namespace p5::hdlc
