#!/usr/bin/env bash
# Repo health check, in labeled stages:
#   tier-1    configure + build + full ctest          (build/)
#   fault     the fault-injection/conformance label    (build/, ctest -L fault)
#   transport the socket-transport label               (build/, ctest -L transport)
#   server    the sharded TunnelServer label           (build/, ctest -L server)
#             + a full-scale churn leg (P5_SERVER_CHURN=1000) of the
#             kill/reconnect test that tier-1 runs at its default
#   session   the PPP session plane label               (build/, ctest -L session)
#             auth FSMs, VJ compression, and the broker negotiation storms
#   capture   the pcap capture/replay + TUN bridge label (build/, ctest -L capture)
#             golden pcap vectors, replay equivalence, tap ledgers; TUN tests
#             SKIP without /dev/net/tun privileges. Plus the bench_tunnel
#             --pcap quick gate vs the committed BENCH_capture.json
#   tier      device-tier matrix: transport+conformance suites (each tier
#             in-process), then again with P5_ESCAPE_TIER=scalar (the fast
#             tier on the scalar escape engine), then the full suite with
#             P5_ESCAPE_TIER=avx2 (keeps the AVX2 kernels covered on hosts
#             that dispatch vbmi2)
#   asan      ASan+UBSan build + full ctest            (build-asan/)
#   tsan      TSan build + the threaded suites         (build-tsan/)
#   bench     smoke run of every registered bench      (build/, ctest -L bench)
#             + bench_compare.py regression gates: --quick bench_softpath,
#             bench_tunnel, bench_server and bench_session sweeps diffed
#             against the committed BENCH_*.json
#   perfbench the repository's benchmark (perfbench/, .bench_build/perfbench):
#             Release build of perfbench + perfbench_tests, the unit tests,
#             then a 1 s traced run of each workload through perfbench/run.py
#             (exit 0 = every delivery and ledger checked out; no timing gate)
#
# Usage: scripts/check.sh [stage...]   (default: all stages in order)
#   e.g. scripts/check.sh tier-1 fault     # skip the sanitizer rebuilds
# Seed reproduction for any failing property test: see TESTING.md
# (P5_TEST_SEED / P5_TEST_CASES pass straight through this script).
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && STAGES=(tier-1 fault transport server session capture tier asan tsan bench perfbench)

want() {
  local s
  for s in "${STAGES[@]}"; do [ "$s" = "$1" ] && return 0; done
  return 1
}

if want tier-1; then
  echo "== tier-1: configure + build + ctest =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest --output-on-failure -j)
fi

if want fault; then
  echo
  echo "== fault: deterministic fault-injection + conformance (ctest -L fault) =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest -L fault --output-on-failure -j)
fi

if want transport; then
  echo
  echo "== transport: epoll socket transport suite (ctest -L transport) =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest -L transport --output-on-failure -j)
fi

if want server; then
  echo
  echo "== server: sharded TunnelServer suite (ctest -L server) =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest -L server --output-on-failure -j)
  # The churn test's full-default target already runs in tier-1; this leg
  # re-runs it explicitly so a `scripts/check.sh server` in isolation still
  # covers the kill/reconnect path at scale.
  (cd build && P5_SERVER_CHURN=1000 ctest -R 'ServerChurn' --output-on-failure)
fi

if want session; then
  echo
  echo "== session: PPP auth + VJ + broker storm suite (ctest -L session) =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest -L session --output-on-failure -j)
fi

if want capture; then
  echo
  echo "== capture: pcap capture/replay + TUN bridge suite (ctest -L capture) =="
  cmake -B build -S .
  cmake --build build -j
  # TUN-dependent tests and the p5_tun probe SKIP (exit 77) when the host
  # has no /dev/net/tun or no CAP_NET_ADMIN — a skip is green, a FAIL is not.
  (cd build && ctest -L capture --output-on-failure -j)
  echo
  echo "== capture gate: quick pcap-replay tunnel sweep vs committed baseline =="
  # Replay throughput is wall-clock like the tunnel gate (80% per-bench
  # tolerance); the bench itself exits nonzero if any chunk ledger fails to
  # close, so the gate only catches a collapsed replay path.
  ./build/bench/bench_tunnel --pcap --quick --out build/BENCH_capture.fresh.json > /dev/null
  python3 scripts/bench_compare.py build/BENCH_capture.fresh.json BENCH_capture.json \
    --metric new_mb_s
fi

if want tier; then
  echo
  echo "== tier: device-tier matrix over the transport + conformance suites =="
  cmake -B build -S .
  cmake --build build -j
  # The suites run every tier-covering test at both device tiers in-process;
  # the second leg proves the fast tier holds up with the escape engine
  # clamped to scalar.
  (cd build && ctest -R 'Transport|Conformance' --output-on-failure -j)
  (cd build && P5_ESCAPE_TIER=scalar ctest -R 'Transport|Conformance' --output-on-failure -j)
  # A host with AVX-512 VBMI2 dispatches vbmi2, so nothing above runs the
  # AVX2 kernels; clamp to them for one more full pass. (On a host without
  # AVX2 the clamp is a no-op and this re-runs the dispatched tier.)
  (cd build && P5_ESCAPE_TIER=avx2 ctest --output-on-failure -j)
fi

if want asan; then
  echo
  echo "== asan: address+undefined sanitizers, full ctest (build-asan) =="
  cmake -B build-asan -S . -DP5_SANITIZE=address,undefined
  cmake --build build-asan -j
  (cd build-asan && ctest --output-on-failure -j)
fi

if want tsan; then
  echo
  echo "== tsan: thread sanitizer, threaded + fault suites (build-tsan) =="
  cmake -B build-tsan -S . -DP5_SANITIZE=thread
  cmake --build build-tsan -j
  # TSan's value is the threaded runtime; run the suites that spin threads
  # (including the sharded broker storm and the counter block's
  # snapshot-during-writes case) plus the whole fault label (cheap, and
  # proves the harness is race-free).
  (cd build-tsan && ctest -R 'LineCard|SpscRing|SharedMemory|Transport|Server|Broker|Capture|Tun|Replay|Pcap|TraceGen|CounterBlock' --output-on-failure -j)
  (cd build-tsan && ctest -L fault --output-on-failure -j)
fi

if want bench; then
  echo
  echo "== bench smoke: ctest -L bench =="
  (cd build && ctest -L bench --output-on-failure -j)
  echo
  echo "== bench gate: quick softpath sweep vs committed baseline =="
  # The gate compares *speedup ratios* (new/old measured in the same run),
  # which survive host differences; the wide tolerance absorbs the noise of
  # --quick windows on shared runners while still catching a collapsed
  # dispatch tier (losing SIMD costs far more than 50%). For a careful
  # same-host check, run the bench without --quick and compare with the
  # default 15% tolerance.
  ./build/bench/bench_softpath --quick --out build/BENCH_softpath.fresh.json > /dev/null
  python3 scripts/bench_compare.py build/BENCH_softpath.fresh.json BENCH_softpath.json \
    --tolerance 0.5
  echo
  echo "== bench gate: quick tunnel sweep vs committed baseline =="
  # Wall-clock socket throughput on a shared host swings hard, so this gate
  # leans on the per-bench default tolerance (80%, see bench_compare.py):
  # it only trips when the transport collapses, not when the runner is busy.
  ./build/bench/bench_tunnel --quick --out build/BENCH_tunnel.fresh.json > /dev/null
  python3 scripts/bench_compare.py build/BENCH_tunnel.fresh.json BENCH_tunnel.json \
    --metric new_mb_s
  echo
  echo "== bench gate: quick server sweep vs committed baseline =="
  # Same reasoning as the tunnel gate (80% per-bench tolerance): the figure
  # is wall-clock socket+decode throughput and host-count dependent; the
  # gate exists to catch a collapsed termination path, and the bench itself
  # exits nonzero if any ledger fails to close.
  ./build/bench/bench_server --quick --out build/BENCH_server.fresh.json > /dev/null
  python3 scripts/bench_compare.py build/BENCH_server.fresh.json BENCH_server.json \
    --metric new_mb_s
  echo
  echo "== bench gate: quick session sweep vs committed baseline =="
  # Wall-clock like the tunnel/server gates (80% per-bench tolerance): the
  # rows are VJ MB/s and storm sessions/s, and the bench aborts on its own
  # if any storm ledger fails to close, so the gate only catches collapses.
  ./build/bench/bench_session --quick --out build/BENCH_session.fresh.json > /dev/null
  python3 scripts/bench_compare.py build/BENCH_session.fresh.json BENCH_session.json \
    --metric new_mb_s
fi

if want perfbench; then
  echo
  echo "== perfbench: Release build, unit tests, 1 s traced smoke per workload =="
  # Nothing else builds perfbench/, yet it drives the endpoint, framer and
  # tunnel APIs. run.py reuses this build tree (incremental, no rebuild).
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build/perfbench --target perfbench perfbench_tests -j
  ./.bench_build/perfbench/perfbench_tests
  for w in pair_bulk pair_imix_paced server_sink; do
    echo "-- $w"
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 > /dev/null
  done
fi

echo
echo "check.sh: all green"
