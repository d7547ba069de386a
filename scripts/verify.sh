#!/usr/bin/env bash
# Canonical tier-1 verification: hermetic build + full test suite +
# bench-target compilation, all offline (the workspace is
# zero-dependency by policy — an empty cargo registry cache must work).
set -euo pipefail
cd "$(dirname "$0")/.."

# One reader for the environment: every TERASEM_* knob goes through
# sem_obs::env, so no other source file may read a variable directly.
if grep -rnE 'env::var(_os)?\(' crates/*/src crates/*/benches src --include='*.rs' \
    | grep -v '^crates/obs/src/env.rs:'; then
    echo "verify: direct environment read outside crates/obs/src/env.rs" >&2
    exit 1
fi

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo test -q --offline -p sem-obs
cargo bench --no-run --offline -p sem-bench
# The benchmark crate builds this workspace's crates by path from its own
# lock file: an API or dependency change that breaks it, or that would
# rewrite that lock file, fails here rather than at benchmark time.
CARGO_TARGET_DIR=.bench_build cargo check --locked --offline --manifest-path perfbench/Cargo.toml
scripts/metrics_smoke.sh
scripts/fault_smoke.sh
scripts/soak_smoke.sh
scripts/net_smoke.sh
scripts/net_fault_smoke.sh
scripts/serve_smoke.sh
scripts/bench_snapshot.sh

echo "verify: OK"
