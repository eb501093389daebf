#!/usr/bin/env bash
# CI gate: release build, the cascn-lint contract ratchet (all nine rules:
# the five token rules plus the per-crate concurrency passes — lock-order,
# guard-across-blocking, wait-loop, atomic-ordering), clippy with
# warnings-as-errors, the full test suite, the thread-parity suite in
# release (optimized float codegen is the configuration that ships), bench
# compilation, the repo benchmark's build and helper tests (perfbench calls
# the graph/core/serve API directly, so breaking it must fail here), the
# perf ratchet (BENCH_train.json vs bench-baseline.json: sparse-kernel
# speedup, kernel-accuracy, next-user Hit@10 and exact φ-count gates plus
# banded wall-clock), the kill-and-resume smoke test, the serving smoke
# test, the next-user train→serve smoke test, and the fleet smoke test
# (3-replica tier behind cascn-router surviving a kill -9 under load with
# zero non-503 errors and a warm restart, plus the /predict_next leg gated
# by serve_check against serve-baseline.json).
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release
cargo run --release -p cascn-lint -- --check
cargo clippy --all-targets -- -D warnings
cargo test -q
cargo test -q --release -p cascn --test thread_parity
cargo bench --no-run -p cascn-bench
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release -q -p cascn-bench --bin record -- --check
scripts/resume_smoke.sh
scripts/serve_smoke.sh
scripts/next_user_smoke.sh
scripts/fleet_smoke.sh
