// perfbench — end-to-end and per-layer benchmark of the fast device tier,
// the TCP tunnel and the sharded tunnel server.
//
//   perfbench --workload pair_bulk|pair_imix_paced|server_sink
//             --seed N --seconds S --trace 0|1
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exit code 0
// when every delivery and ledger checked out, 1 when one did not, 2 when the
// run could not be made.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pair_bulk|pair_imix_paced|server_sink --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !perfbench::is_workload(opt.workload) || !(opt.seconds > 0)) return usage();

  // 1 us timer slack (the default is 50 us): the open loop sleeps between
  // 250 us ticks and must wake on time. Threads started later inherit it.
  (void)::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::printf("perfbench %s  seed %llu  %.1f s  trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const perfbench::Report& shown = opt.trace ? r.per_layer : r.end_to_end;
  shown.print_table(opt.trace ? "per-layer metrics (traced run):" : "end-to-end metrics:");
  std::printf("%s\n", shown.json_line(r.correct, r.attempted, r.failed).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
