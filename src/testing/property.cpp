#include "testing/property.hpp"

#include <cstdlib>
#include <sstream>

#include "hdlc/accm.hpp"

namespace p5::testing {

namespace {

u64 splitmix(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Run the body once at (seed, size); returns the failure message or empty.
std::string run_case(const std::function<void(CaseContext&)>& body, u64 index, u64 seed,
                     std::size_t size) {
  CaseContext c;
  c.index = index;
  c.seed = seed;
  c.size = size;
  c.rng = Xoshiro256(seed);
  body(c);
  if (!c.failed) return {};
  return c.message.empty() ? std::string("property body called fail()") : c.message;
}

}  // namespace

std::optional<u64> env_u64(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::strtoull(v, nullptr, 0);
}

u64 resolved_seed(u64 fallback) { return env_u64("P5_TEST_SEED").value_or(fallback); }

u64 resolved_cases(u64 fallback) { return env_u64("P5_TEST_CASES").value_or(fallback); }

PropertyResult check_property(std::string_view name, const PropertyOptions& opt,
                              const std::function<void(CaseContext&)>& body) {
  PropertyResult r;
  const u64 base_seed = resolved_seed(opt.seed);
  const u64 cases = resolved_cases(opt.cases);
  const std::size_t lo = opt.min_size;
  const std::size_t hi = std::max(opt.max_size, lo);

  for (u64 i = 0; i < cases; ++i) {
    const u64 case_seed = splitmix(base_seed ^ (i * 0x9E3779B97F4A7C15ull + 1));
    // Linear size ramp: early cases are tiny (fast, good at boundary bugs),
    // late cases stress capacity.
    const std::size_t size =
        cases <= 1 ? hi : lo + static_cast<std::size_t>((hi - lo) * i / (cases - 1));

    std::string msg = run_case(body, i, case_seed, size);
    ++r.cases_run;
    if (msg.empty()) continue;

    // Shrink by halving the size hint while the same case seed still fails.
    std::size_t failing_size = size;
    std::string failing_msg = msg;
    std::size_t probe = size / 2;
    while (probe >= lo && probe < failing_size) {
      std::string m = run_case(body, i, case_seed, probe);
      if (m.empty()) break;
      failing_size = probe;
      failing_msg = std::move(m);
      probe /= 2;
    }

    r.ok = false;
    r.failing_case = i;
    r.failing_seed = case_seed;
    r.failing_size = failing_size;
    std::ostringstream out;
    out << "property '" << name << "' failed at case " << i << "/" << cases << ": "
        << failing_msg << "\n  case seed 0x" << std::hex << case_seed << std::dec << ", size "
        << failing_size;
    if (failing_size != size) out << " (shrunk from " << size << ")";
    out << "\n  reproduce: P5_TEST_SEED=0x" << std::hex << base_seed << std::dec
        << " (base seed; the runner re-derives the case)";
    r.message = out.str();
    return r;
  }
  return r;
}

Bytes gen_payload(Xoshiro256& rng, std::size_t size) {
  Bytes p;
  p.reserve(size);
  // Occasionally generate the pathological all-escape payload that drives
  // worst-case stuffing expansion (the paper's sizing argument).
  if (size > 0 && rng.chance(0.05)) {
    p.assign(size, rng.chance(0.5) ? hdlc::kFlag : hdlc::kEscape);
    return p;
  }
  for (std::size_t i = 0; i < size; ++i) {
    if (rng.chance(0.15))
      p.push_back(rng.chance(0.5) ? hdlc::kFlag : hdlc::kEscape);
    else if (rng.chance(0.1))
      p.push_back(static_cast<u8>(rng.below(0x20)));  // ACCM-sensitive controls
    else
      p.push_back(rng.byte());
  }
  return p;
}

u16 gen_protocol(Xoshiro256& rng) {
  return static_cast<u16>(((rng.byte() & 0xFEu) << 8) | rng.byte() | 1u);
}

hdlc::FrameConfig gen_frame_config(Xoshiro256& rng) {
  hdlc::FrameConfig cfg;
  cfg.acfc = rng.chance(0.5);
  cfg.pfc = rng.chance(0.5);
  cfg.fcs = rng.chance(0.5) ? hdlc::FcsKind::kFcs32 : hdlc::FcsKind::kFcs16;
  cfg.accm = rng.chance(0.3) ? hdlc::Accm::async_default() : hdlc::Accm::sonet();
  return cfg;
}

}  // namespace p5::testing
