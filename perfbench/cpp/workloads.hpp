// The three perfbench workloads and the isolated layer replay.
#pragma once

#include <string>

#include "bench_core.hpp"
#include "inputs.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  /// Deliveries checked: every datagram the host reaped. A datagram the
  /// device dropped was never delivered, so it is not counted here (the
  /// number varies with host timing); delivered_frac and the per-layer
  /// drop counters report it.
  u64 attempted = 0;
  u64 failed = 0;  ///< deliveries that were not byte-exact and in order
  Report end_to_end;  ///< the untraced run's figures
  Report per_layer;   ///< the traced run's figures
};

[[nodiscard]] bool is_workload(const std::string& name);
/// Runs `opt.workload`; throws std::runtime_error when the run cannot be
/// made (bind failure, an input that does not decode).
[[nodiscard]] RunResult run_workload(const RunOptions& opt);

/// "Where the time goes": the workload's own datagrams through each layer's
/// public functions on their own, and through TX-only, RX-only and
/// socketless-pair endpoints. Prints the share_of_parent tree and adds the
/// fastpath/hdlc/sonet/p5 replay metrics to `out`. `tunnel_MBps`, when
/// nonzero, is the live socketed pair's goodput, the tree's root.
void layer_replay(const DatagramSet& set, p5::sonet::StsSpec sts, double tunnel_MBps,
                  Report& out);

}  // namespace perfbench
