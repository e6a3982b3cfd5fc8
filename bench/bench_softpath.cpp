// Old-vs-new throughput of the word-parallel software fast path
// (src/fastpath) against the seed-era scalar reference paths preserved in
// fastpath/scalar_ref.hpp:
//
//   * CRC FCS-16/FCS-32: byte-at-a-time table loop vs the kernel the FCS
//     engine dispatches (carry-less multiply for FCS-32 on hosts with
//     PCLMULQDQ, slicing-by-16 otherwise), plus FCS-32 pinned to the
//     slicing-by-16 tables so the portable path stays gated;
//   * HDLC stuffing/destuffing: octet loop vs the runtime-dispatched escape
//     engine (scalar / SWAR / SSE2 / SSSE3 / AVX2 / VBMI2), with one pinned
//     row per tier this host runs plus the production auto-dispatch row;
//   * framing: encapsulate+stuff+copy (3 allocations) vs fused zero-alloc
//     encode_into, and a 32-frame batched encode (encode_batch_into) that
//     amortises per-frame setup — the small-frame case;
//   * SONET scramblers: bit-serial loops vs table / byte-parallel stepping.
//
// Swept across escape densities {0, 1/128, 0.25, 1.0} and payload sizes
// {64 B, 1500 B, 9 KB}. Results go to stdout and to a machine-readable
// BENCH_softpath.json (format documented in README.md) so future PRs can
// track the perf trajectory; scripts/bench_compare.py gates regressions
// against the committed baseline.
//
// Row semantics: `frame_bytes` is always the *payload* size; `wire_bytes`
// is the stuffed/framed size the kernel actually moves (destuff throughput
// is measured over wire octets consumed). `dispatch` names the escape-engine
// tier (for CRC rows, the FCS kernel) the row ran; `pinned` rows force a
// tier or kernel for diagnosis — every escape tier, the dispatched one too,
// so a tier's cells exist on any host that can run it. The speedup
// guarantees apply to the auto-dispatch rows only (a pinned SWAR row at high
// density is *expected* to trail the scalar seed; that regression is exactly
// why the dispatcher exists).
//
// Usage: bench_softpath [--smoke] [--quick] [--out <path>]
//   --smoke  tiny iteration counts (CI bit-rot check, label `bench`)
//   --quick  short timed windows (~10x faster full sweep; used by the
//            check.sh / CI bench_compare gate, where the *ratios* matter)
//   --out    JSON output path (default BENCH_softpath.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "crc/crc_table.hpp"
#include "fastpath/escape_simd.hpp"
#include "fastpath/scalar_ref.hpp"
#include "hdlc/frame.hpp"
#include "hdlc/stuffing.hpp"
#include "sonet/scrambler.hpp"

namespace p5::bench {
namespace {

struct Row {
  std::string kernel;        // e.g. "crc32", "stuff", "frame_batch"
  std::size_t frame_bytes;   // payload size driven through the kernel
  double escape_density;     // fraction of escape-class octets in the payload
  std::string dispatch;      // engine/tier that produced new_mb_s
  bool pinned = false;       // true: tier forced below auto-dispatch (diagnostic)
  std::size_t wire_bytes;    // stuffed/framed size the kernel moves
  double old_mb_s;           // seed scalar path
  double new_mb_s;           // fastpath
  [[nodiscard]] double speedup() const { return old_mb_s > 0 ? new_mb_s / old_mb_s : 0.0; }
};

double g_min_seconds = 0.04;  // per window; --smoke drops it to ~0
int g_repeats = 3;            // best-of-N windows; --smoke drops to 1

/// Run `fn` (which processes `bytes_per_call` octets) in g_repeats timed
/// windows and return the best MB/s (1e6 bytes per second). Best-of-N damps
/// scheduler/frequency noise symmetrically for the old and new paths, so the
/// reported speedups are stable run to run.
double measure_mb_s(std::size_t bytes_per_call, const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  // Warm-up run (also wakes lazily-built tables).
  fn();
  double best = 0.0;
  for (int rep = 0; rep < g_repeats; ++rep) {
    u64 calls = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < g_min_seconds);
    const double mb_s =
        static_cast<double>(calls) * static_cast<double>(bytes_per_call) / elapsed / 1e6;
    if (mb_s > best) best = mb_s;
  }
  return best;
}

void print_row(const Row& r) {
  std::printf("  %-12s %6zu B (wire %6zu)  density %-8.4g  %-10s old %9.1f MB/s  new %9.1f MB/s  %5.2fx%s\n",
              r.kernel.c_str(), r.frame_bytes, r.wire_bytes, r.escape_density,
              r.dispatch.c_str(), r.old_mb_s, r.new_mb_s, r.speedup(),
              r.pinned ? "  [pinned]" : "");
}

bool write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"bench\": \"softpath\",\n  \"unit\": \"MB/s\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"frame_bytes\": " << r.frame_bytes
        << ", \"escape_density\": " << r.escape_density << ", \"dispatch\": \"" << r.dispatch
        << "\", \"pinned\": " << (r.pinned ? "true" : "false")
        << ", \"wire_bytes\": " << r.wire_bytes << ", \"old_mb_s\": " << r.old_mb_s
        << ", \"new_mb_s\": " << r.new_mb_s << ", \"speedup\": " << r.speedup() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

volatile u32 g_sink;  // defeat dead-code elimination without perturbing loops

}  // namespace

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_softpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_min_seconds = 0.01;
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  if (smoke) {
    g_min_seconds = 0.0;  // one timed call per window
    g_repeats = 1;
  }

  banner("bench_softpath — word-parallel software fast path, old vs new",
         "host-side acceleration (no paper artifact); mirrors the paper's 8->32-bit "
         "width-scaling idea in software");
  std::printf("escape-engine dispatch: detected %s, auto tier %s; FCS-32 kernel %s\n",
              fastpath::to_string(fastpath::detected_tier()),
              fastpath::to_string(fastpath::best_tier()), crc::fcs32().slicer().kernel());

  const fastpath::scalar::ByteTableCrc old_crc32(crc::kFcs32);
  const fastpath::scalar::ByteTableCrc old_crc16(crc::kFcs16);
  const hdlc::Accm accm = hdlc::Accm::sonet();
  const fastpath::EscapeTier auto_tier = fastpath::best_tier();
  const std::size_t sizes[] = {64, 1500, 9216};
  const double densities[] = {0.0, 1.0 / 128, 0.25, 1.0};
  std::vector<Row> rows;

  for (const std::size_t size : sizes) {
    for (const double density : densities) {
      const Bytes payload = density_payload(size, density, 42);
      const Bytes stuffed = hdlc::stuff(payload);

      // --- CRC (input-independent of density, but swept uniformly so every
      // row of the JSON has the same shape) ---
      const double crc32_old = measure_mb_s(size, [&] { g_sink = old_crc32.crc(payload); });
      rows.push_back({"crc32", size, density, crc::fcs32().slicer().kernel(), false, size,
                      crc32_old, measure_mb_s(size, [&] { g_sink = crc::fcs32().crc(payload); })});
      rows.push_back({"crc32", size, density, "slice16", true, size, crc32_old,
                      measure_mb_s(size, [&] {
                        g_sink = crc::fcs32().slicer().update_tables(crc::kFcs32.init, payload);
                      })});
      rows.push_back({"crc16", size, density, crc::fcs16().slicer().kernel(), false, size,
                      measure_mb_s(size, [&] { g_sink = old_crc16.crc(payload); }),
                      measure_mb_s(size, [&] { g_sink = crc::fcs16().crc(payload); })});

      // --- stuffing (throughput in *payload* octets in, wire octets out):
      // one pinned row per tier this host runs, the dispatched tier
      // included, plus the auto-dispatch row. Pinning every tier keeps a
      // tier's gate cells on runners that dispatch a wider one ---
      const double stuff_old = measure_mb_s(
          size, [&] { g_sink = static_cast<u32>(fastpath::scalar::stuff(payload).size()); });
      const double destuff_old = measure_mb_s(stuffed.size(), [&] {
        g_sink = static_cast<u32>(fastpath::scalar::destuff(stuffed).first.size());
      });
      const auto escape_rows = [&](fastpath::EscapeTier tier, bool pinned) {
        const fastpath::EscapeEngine eng(accm, tier);
        rows.push_back({"stuff", size, density, fastpath::to_string(tier), pinned,
                        stuffed.size(), stuff_old, measure_mb_s(size, [&] {
                          Bytes out;
                          out.reserve(2 * payload.size() + fastpath::kStuffSlack);
                          eng.stuff_append(out, payload);
                          g_sink = static_cast<u32>(out.size());
                        })});
        rows.push_back({"destuff", size, density, fastpath::to_string(tier), pinned,
                        stuffed.size(), destuff_old, measure_mb_s(stuffed.size(), [&] {
                          Bytes out;
                          out.reserve(stuffed.size() + fastpath::kStuffSlack);
                          g_sink = eng.destuff_append(out, stuffed) ? 1u : 0u;
                          g_sink = static_cast<u32>(out.size());
                        })});
      };
      for (const fastpath::EscapeTier tier : fastpath::available_tiers()) escape_rows(tier, true);
      escape_rows(auto_tier, false);

      // --- full framer: seed three-buffer path vs fused zero-alloc path ---
      hdlc::FrameConfig cfg;
      cfg.max_payload = 9216;
      hdlc::FrameArena arena;
      const std::size_t frame_wire = hdlc::build_wire_frame(cfg, 0x0021, payload).size();
      rows.push_back(
          {"frame", size, density, fastpath::to_string(auto_tier), false, frame_wire,
           measure_mb_s(size,
                        [&] {
                          const Bytes content = hdlc::encapsulate(cfg, 0x0021, payload);
                          Bytes wire;
                          wire.reserve(content.size() + 16);
                          wire.push_back(hdlc::kFlag);
                          const Bytes st = fastpath::scalar::stuff(content, cfg.accm);
                          append(wire, st);
                          wire.push_back(hdlc::kFlag);
                          g_sink = static_cast<u32>(wire.size());
                        }),
           measure_mb_s(size, [&] {
             g_sink = static_cast<u32>(hdlc::encode_into(arena, cfg, 0x0021, payload).size());
           })});

      // --- batched framer: 32 frames per call through encode_batch_into,
      // one reservation + one engine/CRC setup for the burst — the
      // small-frame amortisation the line-card fabric uses ---
      constexpr std::size_t kBurst = 32;
      std::vector<Bytes> burst;
      std::vector<hdlc::BatchFrame> bframes;
      for (std::size_t f = 0; f < kBurst; ++f) {
        burst.push_back(density_payload(size, density, 500 + f));
        bframes.push_back({0x0021, burst.back(), {}, {}});
      }
      hdlc::FrameArena batch_arena;
      const std::size_t batch_wire = hdlc::encode_batch_into(batch_arena, cfg, bframes).size();
      rows.push_back(
          {"frame_batch", size, density, fastpath::to_string(auto_tier), false, batch_wire,
           measure_mb_s(kBurst * size,
                        [&] {
                          u32 total = 0;
                          for (const Bytes& p : burst) {
                            const Bytes content = hdlc::encapsulate(cfg, 0x0021, p);
                            Bytes wire;
                            wire.reserve(content.size() + 16);
                            wire.push_back(hdlc::kFlag);
                            const Bytes st = fastpath::scalar::stuff(content, cfg.accm);
                            append(wire, st);
                            wire.push_back(hdlc::kFlag);
                            total += static_cast<u32>(wire.size());
                          }
                          g_sink = total;
                        }),
           measure_mb_s(kBurst * size, [&] {
             g_sink = static_cast<u32>(hdlc::encode_batch_into(batch_arena, cfg, bframes).size());
           })});
    }

    // --- scramblers (density-independent: one row per size) ---
    Bytes buf = density_payload(size, 0.0, 7);
    u8 lfsr = 0x7F;
    sonet::FrameScrambler frame_scr;
    rows.push_back({"scramble_x7", size, 0.0, "table", false, size,
                    measure_mb_s(size,
                                 [&] {
                                   for (u8& b : buf)
                                     b ^= fastpath::scalar::frame_keystream_bitserial(lfsr);
                                 }),
                    measure_mb_s(size, [&] { frame_scr.apply(buf, 0, buf.size()); })});
    u64 hist = 0;
    sonet::SelfSyncScrambler43 selfsync;
    rows.push_back({"scramble_x43", size, 0.0, "byte-parallel", false, size,
                    measure_mb_s(size,
                                 [&] {
                                   for (u8& b : buf)
                                     b = fastpath::scalar::selfsync_scramble_bitserial(hist, b);
                                 }),
                    measure_mb_s(size, [&] { selfsync.scramble_in_place(buf); })});
  }

  for (const Row& r : rows) print_row(r);
  if (!write_json(rows, out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)%s\n", out_path.c_str(), rows.size(),
              smoke ? " [smoke mode: timings are not meaningful]" : "");

  // Headline numbers the acceptance criteria track.
  for (const Row& r : rows) {
    if (r.pinned) continue;
    if (r.frame_bytes == 1500 && r.escape_density > 0.0 && r.escape_density < 0.01 &&
        (r.kernel == "crc32" || r.kernel == "stuff"))
      we_measure(r.kernel + " speedup at 1500 B, density 1/128: " +
                 std::to_string(r.speedup()) + "x");
    if (r.frame_bytes == 1500 && r.escape_density == 0.25 && r.kernel == "destuff")
      we_measure("destuff speedup at 1500 B, density 0.25 (" + r.dispatch +
                 "): " + std::to_string(r.speedup()) + "x");
  }
  return 0;
}

}  // namespace p5::bench

int main(int argc, char** argv) { return p5::bench::run(argc, argv); }
