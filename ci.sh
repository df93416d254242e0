#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
# Mirrors .github/workflows/ci.yml so a green run here means a green PR.
# Set CARGO_NET_OFFLINE=true to run fully offline (the workspace has no
# external dependencies, so offline builds always work).
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE=()
if [[ "${CARGO_NET_OFFLINE:-}" == "true" ]]; then
  OFFLINE=(--offline)
fi

# Printed only, not a gate: the size ROADMAP.md tracks (perfbench/ is a
# separate package and not counted).
echo "==> workspace .rs lines: $(git ls-files '*.rs' | grep -v '^perfbench/' | xargs cat | wc -l)"

echo "==> cargo build --release"
cargo build "${OFFLINE[@]}" --release --workspace --all-targets

echo "==> cargo test"
cargo test "${OFFLINE[@]}" --release --workspace -q

echo "==> overflow-checked kernel tests (test profile)"
# Every other test step runs --release, where integer overflow wraps
# silently. The selector's narrow u64 block sums rely on a bound that
# the test profile's overflow checks would catch with a panic; the
# multiserver tests reach them through Sum and Formula servers, several
# points per pass.
cargo test "${OFFLINE[@]}" -q -p spfe-circuits -p spfe-pir
cargo test "${OFFLINE[@]}" -q -p spfe-core multiserver

echo "==> multi-database, robust and Table 1 examples"
# The examples assert their results. Outside the tests, multiserver_sum
# and robust_and_hidden are the only users of multiserver's many-database
# and fault-budget parameters, and table1_tour runs every Table 1
# construction at n = 256.
cargo run "${OFFLINE[@]}" --release -q --example multiserver_sum
cargo run "${OFFLINE[@]}" --release -q --example robust_and_hidden
cargo run "${OFFLINE[@]}" --release -q --example table1_tour

echo "==> cargo clippy (-D warnings)"
cargo clippy "${OFFLINE[@]}" --release --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> benchmark package (perfbench: build + test)"
# perfbench/ is its own package outside the workspace, so the workspace
# build above never compiles it; a kernel API change that breaks the
# benchmark must fail here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> adversarial conformance suite (two fault seeds)"
# The suite asserts every driver x fault-class cell returns Ok or a typed
# ProtocolError. The backtrace log scan is the panic gate: a panic that a
# test harness converted into a failure (or that unwound inside a should-
# not-panic cell) would print "panicked at", which must never appear.
ADV_LOG=$(mktemp)
WORK=$(mktemp -d)
trap 'rm -f "$ADV_LOG"; rm -rf "$WORK"' EXIT
for seed in 1 77; do
  echo "    SPFE_FAULT_SEED=$seed"
  SPFE_FAULT_SEED=$seed RUST_BACKTRACE=1 \
    cargo test "${OFFLINE[@]}" --release -p spfe --test adversarial -q 2>&1 | tee "$ADV_LOG"
  if grep -q "panicked at" "$ADV_LOG"; then
    echo "FAIL: a protocol driver panicked under fault injection" >&2
    exit 1
  fi
done

echo "==> digit walk and lane kernel tests (powers, combs, batch powers, column folds)"
# Every Montgomery power is one digit walk (straus_walk) over a kernel:
# single powers and the FixedBasePow comb on scalar CIOS; pow_chains
# (eight powers per walk, each lane with its own modulus and exponent:
# batch powers, the CRT lift and both halves of a Paillier decryption)
# and MultiPow (the Paillier column fold, eight columns per walk) on the
# IFMA lane kernels when the CPU has them and on CIOS otherwise
# (DESIGN.md §8). All must match the scalar results bit for bit, and the
# counting-walk test pins the walk's product sequence. On an IFMA host
# the tests must say that the lane kernel ran, for the batch powers, for
# the fold and for the CRT decryption.
LANE_LOG="$WORK/lanes.log"
cargo test "${OFFLINE[@]}" --release -p spfe-math -p spfe-crypto -q -- --nocapture \
  pow_batch pow_chains lane_dispatch lane_fold crt_matches crt_decrypt \
  batch_apis decrypt_batch straus_walk fixed_base 2>&1 | tee "$LANE_LOG"
if grep -qw avx512ifma /proc/cpuinfo 2>/dev/null; then
  if ! grep -q "pow_batch[a-z_]*: lane kernel ran" "$LANE_LOG" \
    || ! grep -q "lane_fold[a-z_]*: lane kernel ran" "$LANE_LOG" \
    || ! grep -q "crt_decrypt[a-z_]*: lane kernel ran" "$LANE_LOG"; then
    echo "FAIL: avx512ifma host, but the lane kernel did not run" >&2
    exit 1
  fi
else
  echo "    no avx512ifma on this host: only the scalar fallback was tested"
fi

echo "==> heap-profiling conformance (obs-alloc: instrumented allocator)"
# The mem_profile suite asserts every driver attributes heap to spans and
# that single-thread alloc tallies are bit-identical across reruns and
# masked fault plans (DESIGN.md §12).
cargo test "${OFFLINE[@]}" --release -p spfe-obs -p spfe --features obs-alloc -q

ROOT=$PWD
TABLES="$ROOT/target/release/spfe-tables"

# The gates below need the CLI *with* the instrumented allocator, so the
# fresh suite carries the heap axis the committed v3 baseline gates on.
echo "==> rebuild instrumented CLI (obs-alloc)"
cargo build "${OFFLINE[@]}" --release -p spfe-bench --features obs-alloc --bins

echo "==> cost-report schema gate (spfe-tables e1 --json + validate)"
# A fresh suite is generated in a scratch dir so the committed baseline
# BENCH_costs.json stays pristine for the trend comparison below.
# SPFE_THREADS=1 matches the committed baseline: the heap counters are
# only gated in the single-thread regime (DESIGN.md §12).
(cd "$WORK" && SPFE_THREADS=1 "$TABLES" e1 --json > /dev/null)
"$TABLES" validate "$WORK/BENCH_costs.json"
grep -q '"schema": "spfe-cost-report/v3"' "$WORK/BENCH_costs.json"

echo "==> cost-trend regression gate (fresh run vs committed baseline)"
# Deterministic op counters, comm bytes and single-thread heap totals are
# bit-identical across reruns (DESIGN.md §8, §12), so any regression
# flagged here is a real cost change.
# After an intentional change: spfe-tables trend ... --accept (EXPERIMENTS.md).
"$TABLES" trend --baseline BENCH_costs.json --current "$WORK/BENCH_costs.json"

echo "==> leakage-audit gate (differential obliviousness vs committed baseline)"
# Each harness driver is swept over 3 secret-input variants x (honest +
# masked drops at the two audit fault seeds); every party's view
# fingerprint must match the committed BENCH_audit.json bit-for-bit
# (DESIGN.md §14). Fingerprints are thread-invariant, so one committed
# baseline gates both thread settings.
for threads in 1 4; do
  echo "    SPFE_THREADS=$threads"
  SPFE_THREADS=$threads "$TABLES" audit all --check
done
(cd "$WORK" && SPFE_THREADS=1 "$TABLES" audit e1 --json > /dev/null)
"$TABLES" validate "$WORK/e1.audit.json"

echo "==> trace smoke (Perfetto JSON + folded stacks, alloc weighting)"
(cd "$WORK" && "$TABLES" trace e1 --weight alloc_bytes > /dev/null)
test -s "$WORK/e1.trace.json"
test -s "$WORK/e1.folded"
test -s "$WORK/e1.alloc_bytes.folded"
grep -q '"traceEvents"' "$WORK/e1.trace.json"

echo "==> cross-transport conformance matrix (SPFE_THREADS=1 and 4)"
# Every harness driver over in-memory, masked-faulty, and loopback-TCP
# transports: identical digests, per-label comm bytes, half-round
# structure, view fingerprints, and deterministic op counters
# (DESIGN.md §15). The matrix also re-runs internally at both thread
# settings; the env sweep covers the default-resolution path too.
for threads in 1 4; do
  echo "    SPFE_THREADS=$threads"
  SPFE_THREADS=$threads cargo test "${OFFLINE[@]}" --release -p spfe --test net_conformance -q
done
SPFE_THREADS=1 cargo test "${OFFLINE[@]}" --release -p spfe --test net_timeout -q

echo "==> distributed tracing conformance (Lamport stamps, in-process merge gate)"
# Stamps are issued once per logical delivery (masked-fault retries at
# the audit seeds reproduce the honest stamp sequence), TraceCtx frames
# are absorbed unmetered, and in-process loopback journals merge into a
# causally consistent timeline at both thread settings (DESIGN.md §17).
for threads in 1 4; do
  echo "    SPFE_THREADS=$threads"
  SPFE_THREADS=$threads cargo test "${OFFLINE[@]}" --release -p spfe --test net_trace -q
done

echo "==> networked service smoke (spfe-server + spfe-client over loopback TCP)"
SRV_LOG="$WORK/server.log"
CTL="$WORK/ctl"
SNAP_MID="$WORK/metrics_mid.json"
SNAP_FINAL="$WORK/metrics_final.json"
TRACE_CLIENT="$WORK/client.trace.json"
TRACE_SERVER="$WORK/server.trace.json"
mkfifo "$CTL"
SPFE_LOG=1 target/release/spfe-server --read-deadline-ms 30000 \
  --metrics-json "$SNAP_FINAL" --trace "$TRACE_SERVER" < "$CTL" > "$SRV_LOG" &
SRV_PID=$!
exec 9> "$CTL" # hold the fifo open so the server's stdin stays alive
for _ in $(seq 1 50); do
  grep -q "^listening on " "$SRV_LOG" && break
  sleep 0.1
done
ADDR=$(awk '/^listening on /{print $3; exit}' "$SRV_LOG")
test -n "$ADDR"
# e4's input_select runs in relay mode (its digest sums both parties'
# shares); every other driver here has sans-io cores and runs in compute
# mode (all of e1, e2 and e11, xor2), so both session kinds land in the
# trace journals and net-trace reconciles both.
target/release/spfe-client run --trace "$TRACE_CLIENT" --addr "$ADDR" e1 e2 e4 e11 xor2
# Mid-run scrapes over the same listener: spfe-metrics/v1 JSON and
# Prometheus text exposition, both while sessions are being served.
target/release/spfe-client stats --addr "$ADDR" > "$SNAP_MID"
target/release/spfe-client stats --addr "$ADDR" --prom > "$WORK/metrics.prom"
grep -q '# TYPE spfe_sessions_opened_total counter' "$WORK/metrics.prom"
grep -q 'spfe_sessions_failed_total{kind="panic"} 0' "$WORK/metrics.prom"
echo quit >&9
exec 9>&-
wait "$SRV_PID"
grep -q "failed=0" "$SRV_LOG"

echo "==> distributed trace merge gate (spfe-tables net-trace)"
# The two per-party journals from the smoke run must merge into one
# causally consistent timeline: every receive Lamport-stamped strictly
# after its matching send, per-session half-round depths equal on both
# sides, per-direction counts/labels/bytes paired, and the server
# journal's payload bytes reconciled against the metrics registry
# (DESIGN.md §17). The checks read no wall clock, so this gate is
# deterministic on any machine.
test -s "$TRACE_CLIENT"
test -s "$TRACE_SERVER"
"$TABLES" net-trace e1 --merge "$TRACE_CLIENT" "$TRACE_SERVER" \
  --metrics "$SNAP_FINAL" -o "$WORK/e1.net-trace.json"
grep -q '"traceEvents"' "$WORK/e1.net-trace.json"

echo "==> service health + drift gates (spfe-tables serve-report)"
# The mid-run scrape must already attest a healthy service (zero failed
# sessions, nonzero payload traffic, registry invariants intact), the
# shutdown snapshot must show no failure drift relative to it, and the
# metrics schema must validate alongside cost/audit docs in one batch.
test -s "$SNAP_FINAL"
"$TABLES" validate "$WORK/BENCH_costs.json" "$WORK/e1.audit.json" "$SNAP_MID" "$SNAP_FINAL"
"$TABLES" serve-report "$SNAP_MID"
"$TABLES" serve-report "$SNAP_FINAL" --baseline "$SNAP_MID"

echo "==> parallel-scaling gate (fresh pir-scan + trend --scaling)"
# A fresh scan is measured in the scratch dir; the gate's rule is
# hardware-aware (cores >= threads: >=10% speedup at n >= 4096; fewer
# cores: pool overhead bounded at 10%), so it is honest on any machine.
(cd "$WORK" && "$TABLES" pir-scan > /dev/null)
"$TABLES" trend --scaling --scan "$WORK/BENCH_pir_scan.json"

echo "==> scaling smoke test (synthetic heavy kernel, ignored in plain test runs)"
cargo test "${OFFLINE[@]}" --release -p spfe --test scaling_smoke -q -- --ignored

echo "CI OK"
