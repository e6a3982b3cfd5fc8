// The three workloads. Each one makes its inputs from the seed, sets the
// system up, warms up, then measures for the requested seconds in fixed
// epochs. Throughput and CPU are taken over the whole untraced window,
// latency percentiles over every untraced sample, and set-up time from a
// spare system set up at every epoch boundary. A run with tracing on
// alternates untraced and traced epochs, so the tracing overhead is measured
// inside one run, and adds the layer replay.
#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "p5/endpoint.hpp"
#include "server/server.hpp"
#include "transport/conn.hpp"
#include "transport/event_loop.hpp"
#include "transport/socket.hpp"
#include "transport/tunnel.hpp"

namespace perfbench {

namespace core = p5::core;
namespace server = p5::server;
namespace transport = p5::transport;
using p5::Bytes;
using p5::BytesView;

namespace {

constexpr p5::u16 kIpv4 = 0x0021;
constexpr p5::sonet::StsSpec kSts = p5::sonet::kSts3c;
constexpr double kEpochSeconds = 0.5;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kStartRing = std::size_t{1} << 18;  ///< in-flight datagram start times
constexpr std::size_t kEpochSamples = std::size_t{1} << 21;  ///< latency scratch, pre-touched
constexpr i64 kDrainQuietNs = 30'000'000;
constexpr i64 kSettleLimitNs = 20'000'000'000;

enum SpanName : u32 {
  kSpanPump,           ///< transport: Tunnel::pump
  kSpanRunOnce,        ///< transport: EventLoop::run_once
  kSpanTxPull,         ///< p5 TX: the binding's pull (pull_frame) inside pump
  kSpanRxPush,         ///< p5 RX: the binding's push_batch (push_line) inside run_once
  kSpanSubmit,         ///< p5 TX: submit_datagram
  kSpanReap,           ///< p5 RX: reap_datagram
  kSpanServerStep,     ///< server: TunnelServer::step
  kSpanClientSend,     ///< transport: client send_frame + flush
  kSpanClientRunOnce,  ///< transport: client EventLoop::run_once
  kSpanNames,
};


double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Moves the calling thread to the next of the CPUs the process may use,
/// one step per epoch, so a run spends the same time on each. On a shared
/// host the CPUs run at different speeds (other tenants load the cores under
/// them), and a thread the scheduler leaves on one CPU for a whole run would
/// carry that CPU's speed into the run's figures. Restores the process's CPU
/// set on destruction. Threads the caller starts meanwhile would inherit its
/// single CPU, so only the single-threaded pair uses it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) (void)::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

/// Cumulative counters a workload exposes to the epoch clock.
struct Totals {
  double bytes = 0;      ///< payload octets delivered byte-exact
  double dgrams = 0;     ///< datagrams delivered byte-exact
  double submitted = 0;  ///< datagrams the device accepted for transmission
  double chunks = 0;     ///< wire chunks moved by the transport (TX + RX)
};

struct Epoch {
  double seconds = 0;
  Totals delta;
  double cpu_s = 0;
  double lat_p50_us = 0;
  double lat_p90_us = 0;
  double lat_p99_us = 0;
  bool traced = false;
};

/// Splits the measured window into equal epochs and records each epoch's
/// deltas, CPU time and latency percentiles. The latency samples of the
/// untraced epochs are also pooled over the whole run.
class Window {
 public:
  /// `scratch` holds one epoch's latency samples and `pooled` gathers the
  /// untraced ones; the caller allocates and touches both before its RSS
  /// baseline.
  Window(double seconds, std::vector<const LatencyLog*> logs, bool alternate_tracing,
         std::vector<double>& scratch, LatencyHistogram& pooled)
      : n_(std::max(4, static_cast<int>(std::lround(seconds / kEpochSeconds)))),
        len_ns_(static_cast<i64>(seconds * 1e9) / n_),
        logs_(std::move(logs)),
        from_(logs_.size()),
        alternate_(alternate_tracing),
        lat_(scratch),
        pooled_(pooled) {}

  void begin(const Totals& now_totals) {
    last_ = now_totals;
    t_ = now_ns();
    end_ = t_ + len_ns_;
    cpu_ = cpu_seconds();
    for (std::size_t i = 0; i < logs_.size(); ++i) from_[i] = logs_[i]->written();
  }
  [[nodiscard]] bool due() const { return now_ns() >= end_; }
  [[nodiscard]] bool finished() const { return static_cast<int>(epochs.size()) >= n_; }
  /// Tracing state of the epoch now running.
  [[nodiscard]] bool traced_now() const { return alternate_ && epochs.size() % 2 == 1; }

  /// Close the running epoch and open the next.
  void roll(const Totals& now_totals) {
    Epoch e;
    const i64 t = now_ns();
    e.seconds = static_cast<double>(t - t_) * 1e-9;
    e.delta = {now_totals.bytes - last_.bytes, now_totals.dgrams - last_.dgrams,
               now_totals.submitted - last_.submitted, now_totals.chunks - last_.chunks};
    e.cpu_s = cpu_seconds() - cpu_;
    e.traced = traced_now();
    lat_.clear();
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      const u64 to = logs_[i]->written();
      if (!logs_[i]->copy_us(from_[i], to, lat_, e.traced ? nullptr : &pooled_))
        throw std::runtime_error("latency log lapped inside one epoch");
    }
    e.lat_p50_us = percentile(lat_, 50);
    e.lat_p90_us = percentile(lat_, 90);
    e.lat_p99_us = percentile(lat_, 99);
    peak_rss_ = std::max(peak_rss_, rss_bytes());
    epochs.push_back(std::move(e));
    begin(now_totals);
  }

  [[nodiscard]] double peak_rss() const { return peak_rss_; }
  /// Latency samples of every untraced epoch.
  [[nodiscard]] const LatencyHistogram& pooled() const { return pooled_; }

  /// `fn` of every epoch with the given tracing state.
  template <typename Fn>
  [[nodiscard]] std::vector<double> values(bool traced, Fn&& fn) const {
    std::vector<double> v;
    for (const Epoch& e : epochs)
      if (e.traced == traced) v.push_back(fn(e));
    return v;
  }
  /// The epochs with the given tracing state summed into one: seconds,
  /// deltas and CPU time (latency fields stay 0).
  [[nodiscard]] Epoch sum(bool traced) const {
    Epoch s;
    s.traced = traced;
    for (const Epoch& e : epochs) {
      if (e.traced != traced) continue;
      s.seconds += e.seconds;
      s.cpu_s += e.cpu_s;
      s.delta.bytes += e.delta.bytes;
      s.delta.dgrams += e.delta.dgrams;
      s.delta.submitted += e.delta.submitted;
      s.delta.chunks += e.delta.chunks;
    }
    return s;
  }

  std::vector<Epoch> epochs;

 private:
  int n_;
  i64 len_ns_;
  std::vector<const LatencyLog*> logs_;
  std::vector<u64> from_;
  bool alternate_;
  std::vector<double>& lat_;
  Totals last_;
  i64 t_ = 0, end_ = 0;
  double cpu_ = 0;
  double peak_rss_ = 0;
  LatencyHistogram& pooled_;
};

double goodput_MBps(const Epoch& e) { return e.delta.bytes / e.seconds * 1e-6; }
double dgrams_per_s(const Epoch& e) { return e.delta.dgrams / e.seconds; }
double lat_p50_us(const Epoch& e) { return e.lat_p50_us; }
double lat_p90_us(const Epoch& e) { return e.lat_p90_us; }
double lat_p99_us(const Epoch& e) { return e.lat_p99_us; }
double cpu_ms_per_MB(const Epoch& e) { return e.cpu_s * 1e3 / (e.delta.bytes * 1e-6); }

/// The end-to-end figures every workload reports from its untraced epochs.
void report_end_to_end(const Window& w, const std::vector<double>& setup_s, double rss0,
                       u64 offered, u64 delivered, Report& out) {
  const Epoch all = w.sum(false);
  out.add("goodput_MBps", goodput_MBps(all), "MB/s");
  out.add("dgrams_per_s", dgrams_per_s(all), "1/s");
  out.add("latency_p90_us", w.pooled().percentile_us(90), "us");
  out.add("delivered_frac", offered ? static_cast<double>(delivered) / offered : 0.0, "ratio");
  out.add("cpu_ms_per_MB", cpu_ms_per_MB(all), "ms/MB");
  std::vector<double> su = setup_s;
  std::printf("set-up: %zu times, min %.1f us, median %.1f us, p90 %.1f us\n", su.size(),
              percentile(su, 0) * 1e6, median(su) * 1e6, percentile(su, 90) * 1e6);
  out.add("setup_s", median(setup_s), "s");
  out.add("rss_MB", (w.peak_rss() - rss0) * 1e-6, "MB");
}

/// Latency percentiles and their support, printed with every run: the
/// pooled sample count, the median, p99 and the highest percentile with at
/// least 10 samples beyond it (the JSON gates p90: the median and p99 of the
/// open loop follow how late a shared host wakes a sleeping thread, and
/// spread too far between runs), then each epoch figure's min, median, max
/// and best decile (the 90th percentile of goodput, the 10th of latency and
/// CPU).
void print_latency_support(const Window& w) {
  const LatencyHistogram& h = w.pooled();
  const TailPercentile tail = h.highest_supported();
  std::printf("latency over %zu untraced samples, pooled: latency_p50_us %.3f us, p90 %.3f us, "
              "latency_p99_us %.3f us, p99.9 %.3f us; highest supported p%g = %.3f us (%zu "
              "samples beyond it)\n",
              h.count(), h.percentile_us(50), h.percentile_us(90), h.percentile_us(99),
              h.percentile_us(99.9), tail.pct, tail.value, tail.beyond);
  const auto spread = [&](const char* name, auto fn, bool higher_is_better, const char* unit) {
    std::vector<double> v = w.values(false, fn);
    const double best = percentile(v, higher_is_better ? 90 : 10);
    std::printf("  %-15s min %10.3f  median %10.3f  max %10.3f  best decile %10.3f %s\n", name,
                percentile(v, 0), median(v), percentile(v, 100), best, unit);
  };
  std::printf("untraced epochs:\n");
  spread("goodput", goodput_MBps, true, "MB/s");
  spread("latency p50", lat_p50_us, false, "us");
  spread("latency p90", lat_p90_us, false, "us");
  spread("latency p99", lat_p99_us, false, "us");
  spread("cpu per MB", cpu_ms_per_MB, false, "ms/MB");
}

void add_trace_overhead(const Window& w, Report& out) {
  const double off = goodput_MBps(w.sum(false));
  const double on = goodput_MBps(w.sum(true));
  out.add("trace.goodput_gap_frac", off > 0 ? (off - on) / off : 0.0, "ratio");
  std::printf("tracing overhead: goodput %.2f MB/s untraced vs %.2f MB/s traced epochs\n", off, on);
}

void add_transport_io(const transport::TransportSnapshot& io, double pool_allocated,
                      double delivered_MB, Report& out) {
  const double syscalls = static_cast<double>(io.tx_syscalls + io.rx_syscalls);
  const double pool_total = static_cast<double>(io.pool_recycled) + pool_allocated;
  out.add("transport.frames_per_syscall", io.frames_per_syscall(), "ratio");
  out.add("transport.syscalls_per_MB", delivered_MB > 0 ? syscalls / delivered_MB : 0.0, "1/MB");
  out.add("transport.pool_hit_frac",
          pool_total > 0 ? static_cast<double>(io.pool_recycled) / pool_total : 0.0, "ratio");
  out.add("transport.backpressure_stalls", static_cast<double>(io.backpressure_stalls), "count");
  out.add("transport.send_queue_hwm_KB", static_cast<double>(io.send_queue_hwm) / 1024.0, "KB");
  out.add("transport.chunks_lost", static_cast<double>(io.frames_lost), "count");
}

bool ledger_closed(const transport::TransportSnapshot& s) {
  return s.frames_in == s.frames_out + s.frames_lost;
}

// ===================================================================== pair

/// Wrap a stock endpoint binding so the p5 calls made inside Tunnel::pump
/// and EventLoop::run_once are spans of their own.
transport::TunnelBinding traced_binding(core::SonetEndpoint& ep, Tracer& t) {
  transport::TunnelBinding b = transport::TunnelBinding::endpoint(ep);
  b.pull = [inner = std::move(b.pull), &t] {
    ScopedSpan s(t, kSpanTxPull);
    return inner();
  };
  b.push_batch = [inner = std::move(b.push_batch), &t](std::span<const BytesView> burst) {
    ScopedSpan s(t, kSpanRxPush);
    return inner(burst);
  };
  return b;
}

/// Two fast-tier endpoints joined by two Tunnels over TCP loopback. Data
/// flows tx_ep -> tx_tun -> socket -> rx_tun -> rx_ep.
struct PairRig {
  transport::EventLoop loop;
  std::unique_ptr<core::SonetEndpoint> rx_ep, tx_ep;
  std::unique_ptr<transport::Tunnel> rx_tun, tx_tun;

  explicit PairRig(Tracer& t)
      : rx_ep(core::make_sonet_endpoint(core::DeviceTier::kFast, {}, kSts)),
        tx_ep(core::make_sonet_endpoint(core::DeviceTier::kFast, {}, kSts)) {
    transport::TunnelConfig a;
    a.listen = true;
    rx_tun = std::make_unique<transport::Tunnel>(loop, traced_binding(*rx_ep, t), a);
    rx_tun->start();
    transport::TunnelConfig b;
    b.port = rx_tun->bound_port();
    tx_tun = std::make_unique<transport::Tunnel>(loop, traced_binding(*tx_ep, t), b);
    tx_tun->start();
    const i64 t0 = now_ns();
    while (!(rx_tun->established() && tx_tun->established())) {
      if (now_ns() - t0 > kSettleLimitNs) throw std::runtime_error("tunnel pair never connected");
      loop.run_once(1);
    }
  }
};

RunResult run_pair(const RunOptions& opt, bool paced) {
  DatagramSpec spec;
  if (paced) {
    spec.mix = SizeMix::kImix;
    spec.escape_density = 0.25;
  } else {
    spec.fixed_bytes = 1024;
    spec.escape_density = 0.05;
  }
  const DatagramSet set(spec, opt.seed);
  LatencyLog lat;
  std::vector<i64> t_start(kStartRing, 0);
  constexpr u64 kMask = kStartRing - 1;
  // One generator lag per open-loop tick (4000/s) over warm-up and window.
  std::vector<double> gen_lag_us(
      static_cast<std::size_t>((opt.seconds + kWarmupSeconds + 1.0) * 4000.0) + 1024, 0.0);
  std::size_t lag_n = 0;
  std::vector<double> lat_scratch(kEpochSamples);
  LatencyHistogram pooled;
  const double rss0 = rss_bytes();

  Tracer tr(kSpanNames);

  PairRig rig(tr);
  // setup_s: a spare rig set up (and torn down, untimed) at every epoch
  // boundary of an untraced run, so its median samples the host over the
  // whole run, as the other figures do.
  std::vector<double> setup_s;
  Tracer spare_tracer(kSpanNames);  // never enabled
  const auto time_spare_setup = [&] {
    const i64 t0 = now_ns();
    const PairRig spare(spare_tracer);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  core::SonetEndpoint& tx_ep = *rig.tx_ep;
  core::SonetEndpoint& rx_ep = *rig.rx_ep;

  // Open loop: 100k datagrams/s in ticks of 25, each stamped with its due time.
  constexpr u64 kTickDgrams = 25;
  constexpr i64 kTickNs = 250'000;
  bool offering = true;
  u64 due = 0;        // datagrams generated so far (paced)
  u64 next_seq = 0;   // datagrams the device accepted
  i64 next_tick = now_ns();
  u64 expect = 0;     // lowest sequence number not yet delivered or skipped
  u64 gaps = 0, corrupt = 0, refused = 0;
  u64 ok_dgrams = 0, ok_bytes = 0, submitted_wire = 0;
  double depth_sum = 0, depth_samples = 0;

  const auto generate = [&](i64 now) {
    while (offering && next_tick <= now) {
      for (u64 i = 0; i < kTickDgrams; ++i) t_start[(due + i) & kMask] = next_tick;
      due += kTickDgrams;
      if (lag_n == gen_lag_us.size()) throw std::runtime_error("generator lag log full");
      gen_lag_us[lag_n++] = static_cast<double>(now - next_tick) * 1e-3;
      next_tick += kTickNs;
    }
    if (due - expect >= kStartRing) throw std::runtime_error("open-loop backlog outgrew the ring");
  };
  const auto submit = [&] {
    bool any = false;
    for (;;) {
      if (paced ? next_seq >= due : (!offering || next_seq - expect >= kStartRing / 2)) break;
      if (!tx_ep.tx_has_room(set.payload_bytes(next_seq))) {
        ++refused;
        break;
      }
      Bytes p = set.make(next_seq);
      const i64 t = now_ns();
      bool accepted = false;
      {
        ScopedSpan s(tr, kSpanSubmit);
        accepted = tx_ep.submit_datagram(kIpv4, std::move(p));
      }
      if (!accepted) {
        ++refused;
        break;
      }
      if (!paced) t_start[next_seq & kMask] = t;
      submitted_wire += set.wire_bytes(next_seq);
      ++next_seq;
      any = true;
    }
    return any;
  };
  const auto reap = [&] {
    bool any = false;
    for (;;) {
      std::optional<core::RxDelivery> d;
      {
        ScopedSpan s(tr, kSpanReap);
        d = rx_ep.reap_datagram();
      }
      if (!d) break;
      any = true;
      const i64 now = now_ns();
      u64 seq = 0;
      if (!set.check(d->payload, seq) || seq < expect || seq >= next_seq) {
        ++corrupt;
        continue;
      }
      gaps += seq - expect;
      expect = seq + 1;
      ++ok_dgrams;
      ok_bytes += d->payload.size();
      lat.record(now - t_start[seq & kMask]);
    }
    return any;
  };
  const auto step = [&] {
    if (paced) generate(now_ns());
    bool progress = submit();
    std::size_t work = 0;
    {
      ScopedSpan s(tr, kSpanPump);
      work += rig.rx_tun->pump();
    }
    {
      ScopedSpan s(tr, kSpanPump);
      work += rig.tx_tun->pump();
    }
    {
      ScopedSpan s(tr, kSpanRunOnce);
      work += rig.loop.run_once(0);
    }
    progress = reap() || progress || work > 0;
    depth_sum += static_cast<double>(tx_ep.tx_queue_depth());
    depth_samples += 1;
    // The open loop sleeps to its next tick instead of spinning once idle.
    if (paced && !progress && next_seq == due && !tx_ep.tx_pending()) {
      const i64 wait = next_tick - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    return progress;
  };
  const auto totals = [&] {
    return Totals{static_cast<double>(ok_bytes), static_cast<double>(ok_dgrams),
                  static_cast<double>(next_seq),
                  static_cast<double>(rig.tx_tun->stats().frames_in +
                                      rig.rx_tun->stats().frames_rcvd)};
  };

  // Warm up, then measure.
  CpuRotation cpus;
  cpus.next();
  next_tick = now_ns();
  for (const i64 end = now_ns() + static_cast<i64>(kWarmupSeconds * 1e9); now_ns() < end;) step();
  Window w(opt.seconds, {&lat}, opt.trace, lat_scratch, pooled);
  const std::size_t lag_from = lag_n;
  w.begin(totals());
  while (!w.finished()) {
    step();
    if (w.due()) {
      tr.fold();
      w.roll(totals());
      cpus.next();
      tr.set_enabled(w.traced_now());
      if (!opt.trace) time_spare_setup();
    }
  }
  tr.set_enabled(false);

  // Drain: stop offering; everything accepted is delivered or lost.
  offering = false;
  for (i64 quiet_since = now_ns(); now_ns() - quiet_since < kDrainQuietNs;) {
    if (step() || tx_ep.tx_pending() || next_seq < due) quiet_since = now_ns();
  }
  const u64 offered = paced ? due : next_seq;
  gaps += next_seq - expect;

  RunResult res;
  const transport::TransportSnapshot tx_io = rig.tx_tun->stats(), rx_io = rig.rx_tun->stats();
  const bool ledgers = ledger_closed(tx_io) && ledger_closed(rx_io);
  const core::RxCounters rc = rx_ep.rx_counters();
  res.correct = corrupt == 0 && ledgers && rc.frames_bad == 0 && ok_dgrams + gaps == offered;
  res.attempted = ok_dgrams + corrupt;
  res.failed = corrupt;
  std::printf("checks: %llu delivered byte-exact of %llu offered, %llu lost (device RX-ring "
              "drops %llu), %llu corrupt, %llu FCS-bad frames, chunk ledgers %s\n",
              static_cast<unsigned long long>(ok_dgrams), static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(gaps),
              static_cast<unsigned long long>(rx_ep.rx_overflow_drops()),
              static_cast<unsigned long long>(corrupt),
              static_cast<unsigned long long>(rc.frames_bad), ledgers ? "exact" : "VIOLATED");
  std::printf("failed_frac %.6f ratio (generator-side: offered minus delivered byte-exact)\n",
              offered ? static_cast<double>(gaps) / offered : 0.0);
  if (paced) {
    std::vector<double> lag(gen_lag_us.begin() + static_cast<std::ptrdiff_t>(lag_from),
                            gen_lag_us.begin() + static_cast<std::ptrdiff_t>(lag_n));
    const double lag_p50 = percentile(lag, 50);
    std::printf("gen_lag_p99_us %.3f us (%zu ticks; p50 %.3f us)\n", percentile(lag, 99),
                lag.size(), lag_p50);
  }
  print_latency_support(w);

  if (!opt.trace) {
    report_end_to_end(w, setup_s, rss0, offered, ok_dgrams, res.end_to_end);
    return res;
  }

  // ---- per-layer figures from the traced epochs
  Report& L = res.per_layer;
  const Epoch traced = w.sum(true);
  const Totals& tt = traced.delta;
  const double traced_ns = traced.seconds * 1e9;
  const auto self = [&](u32 n) { return static_cast<double>(tr.totals(n).self_ns); };
  const auto total = [&](u32 n) { return static_cast<double>(tr.totals(n).total_ns); };
  const double transport_self = self(kSpanPump) + self(kSpanRunOnce);
  // The live pair is the tree's root only when it runs at capacity.
  layer_replay(set, kSts, paced ? 0.0 : goodput_MBps(w.sum(false)), L);
  L.add("sonet.idle_fill_frac",
        1.0 - static_cast<double>(submitted_wire) /
                  static_cast<double>(tx_ep.frames_pulled() * kSts.payload_bytes_per_frame()),
        "ratio");
  L.add("p5.tx_ns_per_dgram", (total(kSpanTxPull) + total(kSpanSubmit)) / tt.submitted, "ns");
  L.add("p5.rx_ns_per_dgram", (total(kSpanRxPush) + total(kSpanReap)) / tt.dgrams, "ns");
  const double offered_attempts = static_cast<double>(next_seq + refused);
  L.add("p5.tx_refused_frac", static_cast<double>(refused) / offered_attempts, "ratio");
  L.add("p5.tx_queue_depth_mean", depth_sum / depth_samples, "count");
  L.add("p5.rx_overflow_drops", static_cast<double>(rx_ep.rx_overflow_drops()), "count");
  L.add("transport.self_share", transport_self / traced_ns, "ratio");
  L.add("transport.pump_self_ns_per_chunk", transport_self / tt.chunks, "ns");
  transport::TransportSnapshot io = tx_io;
  io += rx_io;
  add_transport_io(io,
                   static_cast<double>(rig.tx_tun->pool_counters().allocated +
                                       rig.rx_tun->pool_counters().allocated),
                   static_cast<double>(ok_bytes) * 1e-6, L);
  L.add("server.frames_per_syscall", 0.0, "ratio");
  L.add("server.shard_chunk_imbalance", 0.0, "ratio");
  L.add("server.tenant_dgrams_lost", 0.0, "count");
  L.add("server.device_rx_loss_frac", 0.0, "ratio");
  L.add("server.step_self_share", 0.0, "ratio");
  add_trace_overhead(w, L);
  std::printf("traced self time: transport %.1f%%, p5 TX %.1f%%, p5 RX %.1f%% of %.2f s traced\n",
              100 * transport_self / traced_ns,
              100 * (total(kSpanTxPull) + total(kSpanSubmit)) / traced_ns,
              100 * (total(kSpanRxPush) + total(kSpanReap)) / traced_ns, traced_ns * 1e-9);
  return res;
}

// ============================================================ server_sink

constexpr std::size_t kClients = 4;
constexpr std::size_t kSinkDgrams = 1024;
constexpr std::size_t kChunkRing = std::size_t{1} << 16;
/// Chunks a client keeps outstanding (sent, not yet known delivered): more
/// than twice the server's 64 KiB read slice, so every read still brings a
/// burst of ~100 datagrams, while the data in flight (and so the latency)
/// does not depend on how far the kernel grows its socket buffers.
constexpr u64 kWindowChunks = 64;

/// Wakes the client thread when it blocked on closed windows: the client
/// raises `waiting` before it sleeps in run_once(1); a delivery that opens a
/// window clears it and posts a no-op to the client loop. Both sides use
/// sequentially consistent accesses, so a wake-up is never missed.
struct ClientWake {
  std::atomic<bool> waiting{false};
  transport::EventLoop* loop = nullptr;  ///< the measured rig's client loop
};

/// Per-tenant delivery checker, fed by the server's delivered_tap from the
/// shard thread that owns the tenant's only session (one writer). A
/// delivery that is not byte-exact, or not in order (a duplicate, a
/// reordered datagram, one from a chunk the client never sent), is corrupt.
struct TenantChecker {
  const DatagramSet* set = nullptr;
  const SinkStream* stream = nullptr;
  const std::vector<std::atomic<i64>>* sent_at = nullptr;  ///< client's chunk send times
  const std::atomic<u64>* chunks_sent = nullptr;  ///< client chunks handed to the socket
  ClientWake* wake = nullptr;
  SinkOrder order;
  std::atomic<u64> ok{0}, ok_bytes{0}, corrupt{0};
  std::atomic<u64> acked{0};  ///< client chunks known delivered: last delivery's chunk + 1
  LatencyLog lat;

  void on_delivery(BytesView p) {
    const i64 now = now_ns();
    u64 seq = 0;
    std::optional<u64> in_order;
    if (set->check(p, seq)) in_order = order.accept(*stream, seq, chunks_sent->load());
    if (!in_order) {
      corrupt.store(corrupt.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
      return;
    }
    const u64 chunk = *in_order;
    ok.store(ok.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    ok_bytes.store(ok_bytes.load(std::memory_order_relaxed) + p.size(), std::memory_order_relaxed);
    lat.record(now - (*sent_at)[chunk & (kChunkRing - 1)].load(std::memory_order_acquire));
    acked.store(chunk + 1);
    if (wake->waiting.load() && wake->waiting.exchange(false)) wake->loop->post([] {});
  }
};

struct Client {
  std::unique_ptr<transport::StreamConn> conn;
  std::vector<std::atomic<i64>>* sent_at = nullptr;
  const std::atomic<u64>* acked = nullptr;
  std::atomic<u64>* chunks_sent = nullptr;  ///< published before each send
  std::size_t cursor = 0;
  u64 segments = 0;
  bool done = false;
};

/// A 2-shard kSink TunnelServer with one tenant per listener, and four
/// client connections (one per tenant) on the bench thread's loop.
struct ServerRig {
  std::unique_ptr<server::TunnelServer> srv;
  transport::EventLoop loop;
  transport::TransportTelemetry ctel;
  std::array<Client, kClients> clients;
  bool manual;

  ServerRig(bool manual_time, server::ServerConfig cfg,
            std::array<std::vector<std::atomic<i64>>, kClients>& rings,
            std::array<std::atomic<u64>, kClients>& sent,
            const std::array<std::unique_ptr<TenantChecker>, kClients>& checkers)
      : manual(manual_time) {
    srv = std::make_unique<server::TunnelServer>(std::move(cfg));
    if (manual) srv->enable_manual_time();
    if (!srv->start()) throw std::runtime_error("server: " + srv->last_error());
    if (!manual) srv->run();
    for (std::size_t i = 0; i < kClients; ++i) {
      bool in_progress = false;
      transport::Fd fd =
          transport::tcp_connect(transport::SocketAddr{"127.0.0.1", srv->port(i)}, in_progress);
      if (!fd.valid()) throw std::runtime_error("client connect failed");
      clients[i].conn = std::make_unique<transport::StreamConn>(loop, ctel, transport::ConnConfig{},
                                                                std::move(fd), in_progress);
      clients[i].sent_at = &rings[i];
      clients[i].acked = &checkers[i]->acked;
      clients[i].chunks_sent = &sent[i];
    }
    // Established: every client connection open and accepted by the server.
    settle([&] {
      bool open = srv->accepts() == kClients;
      for (const Client& c : clients) open = open && c.conn->open();
      return open;
    });
  }

  /// Wait (untimed) until every accepted connection is a bound session: an
  /// idle shard picks its adoptions up only at its next slice, so this part
  /// depends on where a shard's 1 ms loop timeout happens to be.
  void wait_sessions() {
    settle([&] { return srv->sessions_active() == kClients; });
  }

  template <typename Done>
  void settle(Done&& done) {
    for (const i64 t0 = now_ns(); !done();) {
      if (now_ns() - t0 > kSettleLimitNs) throw std::runtime_error("server clients never connected");
      loop.run_once(0);
      if (manual) {
        (void)srv->step();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(10));  // the shards work meanwhile
      }
    }
  }
  ~ServerRig() {
    for (Client& c : clients) c.conn.reset();  // EOF toward the server first
    srv->stop();
  }
  ServerRig(const ServerRig&) = delete;
  ServerRig& operator=(const ServerRig&) = delete;
};

RunResult run_server_sink(const RunOptions& opt) {
  DatagramSpec spec;
  spec.fixed_bytes = 512;
  spec.escape_density = 0.05;
  spec.templates = kSinkDgrams;
  const DatagramSet set(spec, opt.seed);
  const SinkStream stream = encode_sink_stream(set, kSinkDgrams, kSts);
  // SinkOrder tells a duplicate from the next segment only while the client
  // stays less than a segment ahead of its deliveries.
  if (stream.chunks.size() <= kWindowChunks)
    throw std::runtime_error("client window spans a segment");
  std::array<std::unique_ptr<TenantChecker>, kClients> checkers;
  std::array<std::vector<std::atomic<i64>>, kClients> rings;
  std::array<std::atomic<u64>, kClients> sent{};
  ClientWake wake;
  for (std::size_t i = 0; i < kClients; ++i) {
    rings[i] = std::vector<std::atomic<i64>>(kChunkRing);
    checkers[i] = std::make_unique<TenantChecker>();
    checkers[i]->set = &set;
    checkers[i]->stream = &stream;
    checkers[i]->sent_at = &rings[i];
    checkers[i]->chunks_sent = &sent[i];
    checkers[i]->wake = &wake;
  }
  std::vector<double> lat_scratch(kEpochSamples);
  LatencyHistogram pooled;
  const double rss0 = rss_bytes();

  // Tracing drives the server from this thread (enable_manual_time + step)
  // so TunnelServer::step() can be a span; untraced runs use its threads.
  const bool manual = opt.trace;
  Tracer tr(kSpanNames);

  server::ServerConfig cfg;
  cfg.listeners.clear();
  for (std::size_t i = 0; i < kClients; ++i)
    cfg.listeners.push_back({0, static_cast<p5::u32>(i + 1)});
  cfg.shards = 2;
  cfg.route = server::RouteMode::kSink;
  cfg.tier = core::DeviceTier::kFast;
  cfg.sts = kSts;
  cfg.delivered_tap = [&checkers](p5::u32 tenant, p5::u16, BytesView payload) {
    checkers[tenant - 1]->on_delivery(payload);
  };

  ServerRig rig(manual, cfg, rings, sent, checkers);
  rig.wait_sessions();
  // setup_s: a spare server set up at every epoch boundary of an untraced
  // run (as in run_pair). Its clients never send, so its tap never fires.
  std::vector<double> setup_s;
  const auto time_spare_setup = [&] {
    const i64 t0 = now_ns();
    ServerRig spare(manual, cfg, rings, sent, checkers);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    spare.wait_sessions();
  };
  wake.loop = &rig.loop;

  bool offering = true;
  const auto send = [&] {
    ScopedSpan s(tr, kSpanClientSend);
    bool any = false;
    for (Client& c : rig.clients) {
      while (!c.done && c.conn->writable() &&
             c.chunks_sent->load() - c.acked->load() < kWindowChunks) {
        const Bytes& chunk = stream.chunks[c.cursor];
        const u64 n = c.chunks_sent->load();
        // Stamp and count before handing over: the server may decode it at once.
        (*c.sent_at)[n & (kChunkRing - 1)].store(now_ns(), std::memory_order_release);
        c.chunks_sent->store(n + 1);
        if (!c.conn->send_frame(BytesView(chunk.data(), chunk.size()))) {
          c.chunks_sent->store(n);  // never sent, so no delivery can name it
          break;
        }
        any = true;
        if (++c.cursor == stream.chunks.size()) {
          c.cursor = 0;
          ++c.segments;
          c.done = !offering;
        }
      }
      c.conn->flush();
    }
    return any;
  };
  const auto step = [&] {
    bool progress = send();
    {
      ScopedSpan s(tr, kSpanClientRunOnce);
      progress = rig.loop.run_once(0) > 0 || progress;
    }
    if (manual) {
      ScopedSpan s(tr, kSpanServerStep);
      progress = rig.srv->step() > 0 || progress;
    } else if (!progress) {
      // Nothing to do until a socket drains or a delivery opens a window.
      wake.waiting.store(true);
      bool can_send = false;
      for (const Client& c : rig.clients)
        can_send = can_send || (!c.done && c.conn->writable() &&
                                c.chunks_sent->load() - c.acked->load() < kWindowChunks);
      if (!can_send) rig.loop.run_once(1);
      wake.waiting.store(false);
    }
    return progress;
  };
  const auto delivered = [&] {
    Totals t;
    for (const auto& c : checkers) {
      t.bytes += static_cast<double>(c->ok_bytes.load(std::memory_order_relaxed));
      t.dgrams += static_cast<double>(c->ok.load(std::memory_order_relaxed));
    }
    return t;
  };

  for (const i64 end = now_ns() + static_cast<i64>(kWarmupSeconds * 1e9); now_ns() < end;) step();
  std::vector<const LatencyLog*> logs;
  for (const auto& c : checkers) logs.push_back(&c->lat);
  Window w(opt.seconds, logs, opt.trace, lat_scratch, pooled);
  w.begin(delivered());
  while (!w.finished()) {
    step();
    if (w.due()) {
      tr.fold();
      w.roll(delivered());
      tr.set_enabled(w.traced_now());
      if (!opt.trace) time_spare_setup();
    }
  }
  tr.set_enabled(false);

  // Drain: every client finishes its segment, the queues flush, and the
  // tenant ledgers go quiet.
  offering = false;
  for (Client& c : rig.clients) c.done = c.cursor == 0;
  u64 last_in = ~u64{0};
  for (i64 quiet_since = now_ns(); now_ns() - quiet_since < kDrainQuietNs;) {
    bool busy = step();
    for (const Client& c : rig.clients) busy = busy || !c.done || c.conn->queued_bytes() > 0;
    const u64 in = rig.srv->tenant_aggregate().dgrams_in;
    if (busy || in != last_in) quiet_since = now_ns();
    last_in = in;
  }
  u64 device_drops = 0;
  if (manual) {
    for (std::size_t i = 0; i < rig.srv->shard_count(); ++i) {
      rig.srv->shard(i).for_each_session([&](server::Session& s) {
        if (s.endpoint() != nullptr) device_drops += s.endpoint()->rx_overflow_drops();
      });
    }
  }
  std::array<transport::TransportSnapshot, 2> shard_io{};
  double pool_allocated = 0;
  if (manual) {
    for (std::size_t i = 0; i < 2; ++i) {
      shard_io[i] = rig.srv->shard(i).transport_stats();
      pool_allocated += static_cast<double>(rig.srv->shard(i).pool_counters().allocated);
    }
  }
  u64 offered = 0;
  for (const Client& c : rig.clients) offered += c.segments * stream.dgrams;
  for (Client& c : rig.clients) c.conn.reset();
  rig.srv->stop();

  RunResult res;
  u64 ok = 0, corrupt = 0;
  bool tenant_books = true;
  for (std::size_t i = 0; i < kClients; ++i) {
    const server::TenantSnapshot ts = rig.srv->tenant_stats(static_cast<p5::u32>(i + 1));
    const u64 tap = checkers[i]->ok.load() + checkers[i]->corrupt.load();
    tenant_books = tenant_books && ts.ledger_exact() && ts.dgrams_in == tap;
    ok += checkers[i]->ok.load();
    corrupt += checkers[i]->corrupt.load();
  }
  const server::TenantSnapshot agg = rig.srv->tenant_aggregate();
  const transport::TransportSnapshot sio = rig.srv->transport_stats();
  const transport::TransportSnapshot cio = rig.ctel.snapshot();
  const bool chunk_books = ledger_closed(sio) && ledger_closed(cio);
  res.correct = corrupt == 0 && tenant_books && chunk_books && ok <= offered;
  res.attempted = ok + corrupt;
  res.failed = corrupt;
  const u64 lost = offered - std::min(ok, offered);
  const double rx_loss = offered ? static_cast<double>(offered - std::min(agg.dgrams_in, offered)) /
                                       static_cast<double>(offered)
                                 : 0.0;
  std::printf("checks: %llu delivered byte-exact of %llu offered, %llu corrupt; tenant ledgers "
              "%s (dgrams_in %llu, lost %llu); chunk ledgers %s\n",
              static_cast<unsigned long long>(ok), static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(corrupt), tenant_books ? "exact" : "VIOLATED",
              static_cast<unsigned long long>(agg.dgrams_in),
              static_cast<unsigned long long>(agg.dgrams_lost), chunk_books ? "exact" : "VIOLATED");
  std::printf("failed_frac %.6f ratio (generator-side); the tenant ledger balances yet never saw "
              "%.4f of the offered datagrams (device RX-ring drops)\n",
              offered ? static_cast<double>(lost) / offered : 0.0, rx_loss);
  print_latency_support(w);

  if (!opt.trace) {
    report_end_to_end(w, setup_s, rss0, offered, ok, res.end_to_end);
    return res;
  }

  Report& L = res.per_layer;
  const double traced_ns = w.sum(true).seconds * 1e9;
  const auto self = [&](u32 n) { return static_cast<double>(tr.totals(n).self_ns); };
  layer_replay(set, kSts, 0.0, L);
  L.add("sonet.idle_fill_frac",
        1.0 - static_cast<double>(stream.data_wire_bytes) /
                  static_cast<double>(stream.chunks.size() * kSts.payload_bytes_per_frame()),
        "ratio");
  L.add("p5.tx_ns_per_dgram", 0.0, "ns");
  L.add("p5.rx_ns_per_dgram", 0.0, "ns");
  L.add("p5.tx_refused_frac", 0.0, "ratio");
  L.add("p5.tx_queue_depth_mean", 0.0, "count");
  L.add("p5.rx_overflow_drops", static_cast<double>(device_drops), "count");
  const double client_self = self(kSpanClientSend) + self(kSpanClientRunOnce);
  L.add("transport.self_share", client_self / traced_ns, "ratio");
  L.add("transport.pump_self_ns_per_chunk",
        client_self / static_cast<double>(cio.frames_in ? cio.frames_in : 1), "ns");
  transport::TransportSnapshot io = sio;
  io += cio;
  add_transport_io(io, pool_allocated, static_cast<double>(agg.bytes_in) * 1e-6, L);
  const double r0 = static_cast<double>(shard_io[0].frames_rcvd);
  const double r1 = static_cast<double>(shard_io[1].frames_rcvd);
  L.add("server.frames_per_syscall", sio.frames_per_syscall(), "ratio");
  L.add("server.shard_chunk_imbalance", r0 + r1 > 0 ? std::max(r0, r1) / ((r0 + r1) / 2) : 0.0,
        "ratio");
  L.add("server.tenant_dgrams_lost", static_cast<double>(agg.dgrams_lost), "count");
  L.add("server.device_rx_loss_frac", rx_loss, "ratio");
  L.add("server.step_self_share", self(kSpanServerStep) / traced_ns, "ratio");
  add_trace_overhead(w, L);
  return res;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "pair_bulk" || name == "pair_imix_paced" || name == "server_sink";
}

RunResult run_workload(const RunOptions& opt) {
  if (opt.workload == "pair_bulk") return run_pair(opt, /*paced=*/false);
  if (opt.workload == "pair_imix_paced") return run_pair(opt, /*paced=*/true);
  if (opt.workload == "server_sink") return run_server_sink(opt);
  throw std::runtime_error("unknown workload " + opt.workload);
}

}  // namespace perfbench
