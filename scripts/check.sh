#!/usr/bin/env bash
# The repo's full local gate, offline-safe: formatting, lints, and the
# tier-1 build+test cycle. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# Clippy also enforces the serving-path rules: the crate roots of
# cf-obs, cfsf-core and cf-serve warn (denied here) on panicking calls and
# allow attributes without a reason, and their clippy.toml files disallow the
# bare std Mutex, unreviewed hot-path clock reads and naming the
# concrete model outside cf-serve's live.rs.
echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test"
cargo test --workspace -q --offline

# Analysis gate: the repo lint engine (float-eq, counter pairing, unwind
# captures — the rules no compiler lint expresses; the clippy pass above
# enforces the rest) plus the loom-lite model checker running every
# built-in model exhaustively — including the seeded-race fixture the
# happens-before detector must catch. Zero diagnostics and all models
# green, or the gate fails. The machine-readable report lands at
# target/analyze.json; under CI ($CI set) findings are also emitted as
# GitHub ::error annotations pinned to file/line.
echo "==> cfsf-analyze (lint + concurrency models, deny warnings)"
cargo run -q -p cf-analysis --bin cfsf-analyze --offline -- --deny-warnings \
    --json-out target/analyze.json ${CI:+--annotate}

# TSan job: the loom-lite shim layer under ThreadSanitizer, bounded to
# the model targets and a wall-clock budget (TSAN_BUDGET_SECS). Skips
# with exit 0 when no nightly toolchain is installed; gates when one is.
echo "==> tsan: loom-lite model targets under ThreadSanitizer"
./scripts/tsan.sh

# Sharded serving: the multi-process integration test spawns real shard
# and router processes from the built binaries and asserts (a) remote
# answers are bit-for-bit the in-process answers and (b) killing a shard
# mid-load costs zero router errors — users degrade down the ladder.
# It runs in the workspace pass too; calling it out keeps the fleet
# behavior visible as its own gate in CI logs.
echo "==> sharded serving: router + shard processes round-trip"
cargo test --offline -q --test sharded_serving

# Fleet observability: router + shard processes again, this time
# asserting the cross-process trace stitches under one trace id on
# /traces, the merged cfsf_fleet_* series equal the per-shard sums
# within a single scrape, and the SLO engine publishes burn-rate gauges
# and writes BENCH_slo.json.
echo "==> fleet observability: trace propagation + merged metrics + SLOs"
cargo test --offline -q --test fleet_tracing

# Chaos job: the deterministic fault-injection suite. The faultinject
# feature compiles the injection points into cfsf-core, so this runs as
# its own pass (and lints the gated code the default pass never sees).
echo "==> chaos: clippy with fault injection (deny warnings)"
cargo clippy -p cfsf-core --features faultinject --all-targets --offline -- -D warnings

echo "==> chaos: fault-injection suite"
cargo test -p cfsf-core --features faultinject -q --offline

echo "==> chaos: serving tier (shard connection drops)"
cargo clippy -p cf-serve --features faultinject --all-targets --offline -- -D warnings
cargo test -p cf-serve --features faultinject -q --offline

# The repository benchmark (perfbench/) is a Cargo workspace of its own,
# so none of the passes above build it. Build and test it here: a
# library API change that breaks the benchmark must fail the gate.
echo "==> perfbench: build + tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
