#!/usr/bin/env bash
# The full pre-merge gate. Everything here runs offline (the two
# external dev-dependencies are vendored shims — see README "Offline
# workflow").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> fault-injection smoke run (examples/faults_crash.json)"
out="$(cargo run --release -q -p microfaas-cli -- faults \
    --plan examples/faults_crash.json --invocations 2 --seed 7)"
echo "$out" | grep -q "faults injected" || {
    echo "faults subcommand printed no fault summary"; exit 1; }
echo "$out" | grep -q "faults injected:   0" && {
    echo "checked-in plan injected no faults"; exit 1; }
echo "$out" | grep -q "accounted:         34 of 34 submitted" || {
    echo "faulted run lost jobs"; exit 1; }

echo "==> every docs/*.md handbook must be doctested"
for doc in docs/*.md; do
    grep -q "include_str!(\"../../../$doc\")" crates/cli/src/lib.rs || {
        echo "$doc has no doctest hook in crates/cli/src/lib.rs"; exit 1; }
done
cargo test -q --doc -p microfaas-cli

echo "==> event-queue differential equivalence (tests/queue_equiv.rs)"
cargo test -q -p microfaas-sim --test queue_equiv

echo "==> event-queue throughput floor (cancel mix >= 4.2 Melem/s pre-rewrite baseline)"
bench_out="$(cargo bench -p microfaas-bench --bench core_scale 2>/dev/null)"
echo "$bench_out"
rate="$(echo "$bench_out" | grep "wheel_cancel_timeout_mix/10000 " \
    | sed -n 's/.*(\([0-9.]*\) Melem\/s).*/\1/p')"
[ -n "$rate" ] || { echo "core_scale bench printed no cancel-mix rate"; exit 1; }
awk -v r="$rate" 'BEGIN { exit !(r >= 4.2) }' || {
    echo "cancel-mix throughput $rate Melem/s fell below the 4.2 Melem/s floor"; exit 1; }

echo "==> every BENCH_*.json matches the benchmark-record schema"
python3 -c "
import glob, json
files = sorted(glob.glob('BENCH_*.json'))
assert files, 'no BENCH_*.json records found'
for path in files:
    with open(path) as f:
        record = json.load(f)
    for key in ('bench', 'command', 'date', 'host'):
        assert key in record, f'{path} missing required key {key!r}'
    expected = path[len('BENCH_'):-len('.json')]
    assert record['bench'] == expected, (path, record['bench'])
    assert record['command'].startswith('cargo '), (path, record['command'])
print('validated:', ', '.join(files))
"

echo "==> BENCH_core_scale.json is valid and names the core_scale bench"
python3 -c "
import json
with open('BENCH_core_scale.json') as f:
    record = json.load(f)
assert record['bench'] == 'core_scale', record['bench']
assert record['ten_million_job_recipe']['completed'] == 10_000_000
"

echo "==> perfbench entry points: seed-2022 fingerprints on capacity, flash_taps and gateway_mix"
# perfbench checks every op's output against its recorded seed-2022
# fingerprint (aggregates, ledger CSV, telemetry CSV), so a renamed entry
# point or a moved result fails here rather than in a benchmark run.
# gateway_mix folds every gateway response byte into its fingerprint, so
# a change to a real kernel (regex, deflate, hashing, ...) that alters a
# single response fails here too.
cargo build --release -q --offline --manifest-path perfbench/Cargo.toml
for workload in capacity flash_taps gateway_mix; do
    last="$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 2022 --seconds 1 --trace 0 | tail -n 1)"
    echo "$last" | python3 -c "
import json, sys
result = json.load(sys.stdin)
assert result['failed'] == 0, f\"{result['failed']} of {result['attempted']} ops failed\"
print('$workload: attempted', result['attempted'], 'failed 0')
" || { echo "perfbench $workload reported failed ops"; exit 1; }
done

echo "==> result-cache throughput floor (hot-hit lookups >= 20 Melem/s)"
cache_bench_out="$(cargo bench -p microfaas-bench --bench result_cache 2>/dev/null)"
echo "$cache_bench_out"
cache_rate="$(echo "$cache_bench_out" | grep "cache_lookup/hot_hit/4096 " \
    | sed -n 's/.*(\([0-9.]*\) Melem\/s).*/\1/p')"
[ -n "$cache_rate" ] || { echo "result_cache bench printed no hot-hit rate"; exit 1; }
awk -v r="$cache_rate" 'BEGIN { exit !(r >= 20) }' || {
    echo "cache hot-hit throughput $cache_rate Melem/s fell below the 20 Melem/s floor"; exit 1; }
echo "$cache_bench_out" | grep -q "flash_crowd_zipf: cache off vs" || {
    echo "result_cache bench printed no flash-crowd comparison"; exit 1; }

echo "==> serial/parallel determinism parity (tests/parallel_exec.rs)"
cargo test -q --test parallel_exec

echo "==> parallel sweep smoke: --jobs 2 CSV must be byte-identical to --jobs 1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p microfaas-cli -- sweep \
    --max-vms 4 --invocations 2 --seed 7 --jobs 1 --csv "$tmpdir/serial.csv"
cargo run --release -q -p microfaas-cli -- sweep \
    --max-vms 4 --invocations 2 --seed 7 --jobs 2 --csv "$tmpdir/parallel.csv"
cmp "$tmpdir/serial.csv" "$tmpdir/parallel.csv" || {
    echo "parallel sweep diverged from serial"; exit 1; }

echo "==> policy sweep smoke: sched --jobs 2 Pareto CSV must be byte-identical to --jobs 1"
cargo run --release -q -p microfaas-cli -- sched \
    --rate 0.5 --duration-secs 120 --workers 4 --seed 7 \
    --jobs 1 --csv "$tmpdir/sched_serial.csv"
cargo run --release -q -p microfaas-cli -- sched \
    --rate 0.5 --duration-secs 120 --workers 4 --seed 7 \
    --jobs 2 --csv "$tmpdir/sched_parallel.csv"
cmp "$tmpdir/sched_serial.csv" "$tmpdir/sched_parallel.csv" || {
    echo "parallel policy sweep diverged from serial"; exit 1; }
grep -q ",1$" "$tmpdir/sched_serial.csv" || {
    echo "policy sweep flagged no Pareto-front points"; exit 1; }

echo "==> scenarios smoke: per-regime winners, --jobs 2 CSV byte-identical to --jobs 1"
cat > "$tmpdir/scenarios.json" <<'EOF'
{"scenarios": [
  {"name": "spiky", "arrivals": "flash:0.2,60,60,2"},
  {"name": "skewed", "arrivals": "poisson:0.5", "popularity": "zipf:1.1",
   "tenants": [{"name": "paid", "weight": 1.0, "slo_latency_s": 5.0}]}
]}
EOF
cargo run --release -q -p microfaas-cli -- scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --jobs 1 --csv "$tmpdir/scenarios_serial.csv"
cargo run --release -q -p microfaas-cli -- scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --jobs 2 --csv "$tmpdir/scenarios_parallel.csv"
cmp "$tmpdir/scenarios_serial.csv" "$tmpdir/scenarios_parallel.csv" || {
    echo "parallel scenario sweep diverged from serial"; exit 1; }
[ "$(grep -c ",1$" "$tmpdir/scenarios_serial.csv")" -eq 2 ] || {
    echo "scenario sweep did not name exactly one winner per regime"; exit 1; }
grep -q "^skewed," "$tmpdir/scenarios_serial.csv" || {
    echo "scenario CSV missing a spec-file regime"; exit 1; }

echo "==> cached scenarios smoke: --cache lru:1024, --jobs 2 CSV byte-identical to --jobs 1"
cargo run --release -q -p microfaas-cli -- scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --cache lru:1024 --jobs 1 --csv "$tmpdir/scenarios_cached_serial.csv"
cargo run --release -q -p microfaas-cli -- scenarios \
    --spec "$tmpdir/scenarios.json" --duration-secs 180 --workers 4 --seed 7 \
    --cache lru:1024 --jobs 2 --csv "$tmpdir/scenarios_cached_parallel.csv"
cmp "$tmpdir/scenarios_cached_serial.csv" "$tmpdir/scenarios_cached_parallel.csv" || {
    echo "cached parallel scenario sweep diverged from serial"; exit 1; }
awk -F, 'NR > 1 && $11 > 0 { hits++ } END { exit !(hits > 0) }' \
    "$tmpdir/scenarios_cached_serial.csv" || {
    echo "cached scenario sweep recorded no cache hits"; exit 1; }

echo "==> energy conservation property tests (tests/energy_conservation.rs)"
cargo test -q -p microfaas --test energy_conservation

echo "==> energy smoke: --breakdown conserves, --jobs 2 ledger CSV byte-identical to --jobs 1"
out="$(cargo run --release -q -p microfaas-cli -- energy \
    --rate 2 --duration-secs 120 --workers 4 --seed 7 --breakdown)"
echo "$out" | grep -q "conservation:     attributed + idle == total" || {
    echo "energy run failed its conservation cross-check"; exit 1; }
echo "$out" | grep -q "queue_j" || {
    echo "energy --breakdown printed no five-phase table"; exit 1; }
cargo run --release -q -p microfaas-cli -- energy \
    --rate 2 --duration-secs 120 --workers 4 --seed 7 \
    --budget 0.5,burst=5,action=shed --idle usage-weighted \
    --jobs 1 --csv "$tmpdir/energy_serial.csv"
cargo run --release -q -p microfaas-cli -- energy \
    --rate 2 --duration-secs 120 --workers 4 --seed 7 \
    --budget 0.5,burst=5,action=shed --idle usage-weighted \
    --jobs 2 --csv "$tmpdir/energy_parallel.csv"
cmp "$tmpdir/energy_serial.csv" "$tmpdir/energy_parallel.csv" || {
    echo "parallel energy ledger diverged from serial"; exit 1; }
grep -q ",(idle)," "$tmpdir/energy_serial.csv" || {
    echo "energy ledger CSV missing the idle remainder row"; exit 1; }

echo "==> monitor smoke: inertness cross-check, burn-rate alerts, --jobs 2 CSV byte-identical to --jobs 1"
monitor_flags=(--arrivals flash:0.2,120,60,40 --duration-secs 600 --workers 12
    --governor keep-alive --tenants paid:1:2.5,free:4:30 --seed 2022)
out="$(cargo run --release -q -p microfaas-cli -- monitor \
    "${monitor_flags[@]}" --jobs 1 --csv "$tmpdir/monitor_serial.csv")"
echo "$out" | grep -q "verified inert" || {
    echo "monitor skipped its telemetry-inertness cross-check"; exit 1; }
echo "$out" | grep -q "burn-rate" || {
    echo "flash crowd raised no burn-rate alert"; exit 1; }
cargo run --release -q -p microfaas-cli -- monitor \
    "${monitor_flags[@]}" --jobs 2 --csv "$tmpdir/monitor_parallel.csv" > /dev/null
cmp "$tmpdir/monitor_serial.csv" "$tmpdir/monitor_parallel.csv" || {
    echo "monitored time series diverged across --jobs"; exit 1; }

echo "==> BENCH_telemetry.json records the <= 10% monitored-run budget"
python3 -c "
import json
with open('BENCH_telemetry.json') as f:
    record = json.load(f)
assert record['bench'] == 'telemetry', record['bench']
delta = record['capacity_recipe_10m']['overhead_pct']
assert delta <= 10.0, f'recorded telemetry overhead {delta}% blows the 10% budget'
"

echo "==> analyze smoke: span derivation, phase-sum check, Perfetto round-trip"
out="$(cargo run --release -q -p microfaas-cli -- analyze \
    --invocations 2 --seed 7 --perfetto "$tmpdir/spans.json")"
echo "$out" | grep -q "phase decomposition check" || {
    echo "analyze skipped the phase-sum verification"; exit 1; }
echo "$out" | grep -q "critical-path phase breakdown" || {
    echo "analyze printed no critical-path table"; exit 1; }
# export_chrome_trace self-validates with the hand-rolled parser before
# writing; re-run the round-trip here on the bytes that reached disk.
cargo test -q --test span_parity perfetto_export_round_trips_the_parser
grep -q '"ph":"X"' "$tmpdir/spans.json" || {
    echo "perfetto export contains no complete slices"; exit 1; }
grep -q '"traceEvents"' "$tmpdir/spans.json" || {
    echo "perfetto export missing traceEvents envelope"; exit 1; }

echo "==> analyze smoke: --jobs 2 phase CSV must be byte-identical to --jobs 1"
cargo run --release -q -p microfaas-cli -- analyze \
    --invocations 2 --seed 7 --jobs 1 --csv "$tmpdir/spans_serial.csv"
cargo run --release -q -p microfaas-cli -- analyze \
    --invocations 2 --seed 7 --jobs 2 --csv "$tmpdir/spans_parallel.csv"
cmp "$tmpdir/spans_serial.csv" "$tmpdir/spans_parallel.csv" || {
    echo "parallel analyze diverged from serial"; exit 1; }

echo "All checks passed."
