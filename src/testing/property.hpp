// Minimal property-based test runner: seeded case generation, size growth,
// shrinking by halving, and a per-case seed printed on every failure so any
// red run reproduces from its log line.
//
// Seeds resolve through the environment: P5_TEST_SEED overrides the base
// seed and P5_TEST_CASES overrides the case count, so
//
//   P5_TEST_SEED=0xDEADBEEF ctest -R test_conformance
//
// replays the exact stream a CI failure reported. See TESTING.md.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hdlc/frame.hpp"

namespace p5::testing {

struct PropertyOptions {
  u64 cases = 200;            ///< overridden by P5_TEST_CASES
  u64 seed = 0x5EEDF00Dull;   ///< base seed; overridden by P5_TEST_SEED
  std::size_t min_size = 1;   ///< generator size of the first case
  std::size_t max_size = 256; ///< generator size of the last case (linear ramp)
};

/// One generated case: a dedicated rng (derived from base seed and case
/// index, independent of every other case) plus the size hint the body's
/// generators should respect. Call fail() to flunk the case.
struct CaseContext {
  u64 index = 0;
  u64 seed = 0;          ///< the case's own derived seed
  std::size_t size = 0;  ///< generator size hint (this is what shrinking halves)
  Xoshiro256 rng{0};

  void fail(std::string msg) {
    failed = true;
    if (message.empty()) message = std::move(msg);
  }

  bool failed = false;
  std::string message;
};

struct PropertyResult {
  bool ok = true;
  u64 cases_run = 0;
  u64 failing_case = 0;
  u64 failing_seed = 0;
  std::size_t failing_size = 0;  ///< size after shrinking
  std::string message;           ///< full report: case seed, sizes, repro line

  explicit operator bool() const { return ok; }
};

/// The unsigned integer held by environment variable `name` (decimal or
/// 0x-prefixed hex); nullopt when it is unset or empty. Every test-side
/// override reads through here.
[[nodiscard]] std::optional<u64> env_u64(const char* name);

/// Base seed / case count after applying the environment overrides.
[[nodiscard]] u64 resolved_seed(u64 fallback);
[[nodiscard]] u64 resolved_cases(u64 fallback);

/// Run `body` over `opt.cases` generated cases. On the first failure, shrink
/// by halving the size hint (re-running the same case seed) until the
/// property passes again, and report the smallest size that still failed.
[[nodiscard]] PropertyResult check_property(std::string_view name, const PropertyOptions& opt,
                                            const std::function<void(CaseContext&)>& body);

// ---- shared generators -------------------------------------------------

/// Payload of exactly `size` octets, escape/flag dense enough that stuffing,
/// delineation and the byte sorters all do real work.
[[nodiscard]] Bytes gen_payload(Xoshiro256& rng, std::size_t size);

/// An RFC 1661 assigned-style protocol number (even high octet, odd low).
[[nodiscard]] u16 gen_protocol(Xoshiro256& rng);

/// A random-but-valid framing config (ACFC/PFC/FCS/ACCM varied).
[[nodiscard]] hdlc::FrameConfig gen_frame_config(Xoshiro256& rng);

}  // namespace p5::testing
