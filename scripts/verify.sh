#!/usr/bin/env bash
# Tier-1 verification gate (offline; no network access needed):
# formatting, lints as errors, release build, and the full test suite.
# Run from the repo root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> 3-way engine equivalence: fusion differential (release)"
cargo test --release -p kit-bench --test fusion -q

echo "==> 3-way engine equivalence: randomized differential (release)"
cargo test --release -p kit-bench --test randomized -q

echo "==> collector tests: serial + sliced GC (release)"
cargo test --release -p kit-runtime -q gc

echo "==> soak: short config-fuzzing run (all modes, all engines;"
echo "    collector fuzzed serial or sliced)"
cargo run --release -p kit-bench --bin soak -- --cases 25 --seed 0x5EED0400

echo "==> soak: full-surface generator (datatypes, arrays past the"
echo "    large-object threshold, strings, reals, refs, nested handlers;"
echo "    all modes, all engines, collector fuzzed serial or sliced)"
cargo run --release -p kit-bench --bin soak -- \
    --cases 25 --seed 0x5EED0800 --surface full

echo "==> bench-summary smoke run (2 programs, all three engines)"
cargo run --release -p kit-bench --bin bench-summary -- \
    --only fib,tak --modes r --samples 1 --out /tmp/bench_smoke.json
rm -f /tmp/bench_smoke.json

echo "==> kit-serve smoke: 64-session burst, mixed fuel/memory-quota"
echo "    outcomes, every served counter bit-identical to standalone"
cargo run --release -p kit-bench --bin loadgen -- \
    --sessions 64 --conns 8 --requests 256 --workers 4 \
    --mix 'fib:12,fib:12:fuel=1000,churn:10:pages=4' --check \
    --out /tmp/serve_smoke.json
rm -f /tmp/serve_smoke.json

echo "==> kit-serve chaos smoke: slowloris, mid-frame disconnects,"
echo "    malformed frames, stalled readers and connection churn next to"
echo "    a healthy mix; post-chaos burst must be exact, no worker/cache/"
echo "    connection leaks"
cargo run --release -p kit-bench --bin loadgen -- \
    --sessions 64 --conns 8 --requests 512 --workers 4 \
    --mix 'fib:12,churn:10' --chaos --chaos-secs 3 --check

echo "==> kit-serve flood + drain-under-load + sequential latency:"
echo "    4x-capacity flood into a tiny queue sheds typed Overloaded while"
echo "    executed work stays bit-identical; 100 call-and-wait requests"
echo "    finish without delayed-ACK stalls (serve test suite, release)"
cargo test --release -p kit-serve -q flood
cargo test --release -p kit-serve -q drain
cargo test --release -p kit-serve -q sequential_calls

echo "verify: OK"
