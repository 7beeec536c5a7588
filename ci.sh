#!/bin/sh
# CI gate: build, tests, lints, formatting, and a design-lint pass over
# the default platform configuration. Run from the repository root.
set -eu

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== mb-fuzz smoke (differential oracles, fixed seeds -> zero divergences) =="
# Seeded differential fuzz across all three cross-model oracles
# (ISS-vs-RTL lockstep, bitstream/HWICAP robustness, access-tier
# equivalence): a fixed base seed keeps the run reproducible, and the
# JSON report must show zero divergences. The committed regression
# corpus replays unconditionally inside the cargo test gates
# (crates/diffuzz/tests/corpus_replay.rs).
cargo run --release -q -p diffuzz --bin mb-fuzz -- \
    --oracle all --seeds 500 --base-seed 0 --json /tmp/mb_fuzz_smoke.json
grep -q '"divergences": 0' /tmp/mb_fuzz_smoke.json

echo "== perf trajectory (fig2 --quick, cold + warm-start -> BENCH_fig2.json) =="
# BENCH_fig2.json at the repo root is the canonical structured speed
# artifact: per-rung cycles-per-second (cold-boot and warm rows) plus
# the host description and the warm-start "warmstart" block with the
# measured throughput multiplier. Emitted unconditionally right after
# the test gate — every CI run records a data point even when the
# heavyweight bench steps further down are skipped or fail. Serial
# (--jobs 1) with 3 reps so the per-rung medians are not depressed or
# reordered by worker co-scheduling on small hosts.
cargo run --release -q -p mbsim-bench --bin fig2 -- \
    --quick --jobs 1 --checkpoint /tmp/fig2_warmstart.ckpt 2>/dev/null
cargo run --release -q -p mbsim-bench --bin fig2 -- \
    --quick --reps 3 --jobs 1 --from-checkpoint /tmp/fig2_warmstart.ckpt \
    --json BENCH_fig2.json >/dev/null
grep -q '"failed": 0' BENCH_fig2.json
grep -q '"host"' BENCH_fig2.json
grep -q '"bit_identical": true' BENCH_fig2.json
grep -q '"throughput_multiplier"' BENCH_fig2.json

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo test --release (workspace, consolidated) =="
# One consolidated release-mode pass: the probe-overhead guard, the
# reconfiguration e2e + subsystem suites, and the campaign determinism
# test (tests/determinism.rs) all run here at release timings.
cargo test -q --release --workspace

echo "== perfbench self-test (benchmark crate against this kernel) =="
# The benchmark is its own cargo package outside the workspace, so the
# workspace passes above never build it. Its self-test runs every
# workload at minimal size against the pinned goldens and checks the
# metric names against BENCHMARK.json.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== campaign smoke (fig2 --quick --jobs 2) =="
cargo run --release -q -p mbsim-bench --bin fig2 -- \
    --quick --jobs 2 --json /tmp/fig2_campaign.json >/dev/null
grep -q '"workers": 2' /tmp/fig2_campaign.json
grep -q '"failed": 0' /tmp/fig2_campaign.json

echo "== checkpoint smoke (snapshot -> restore -> golden digests) =="
# Boot to a phase boundary, snapshot, restore onto a fresh platform, run
# to completion, and assert the replayed run reproduces the golden boot
# digests exactly (tests/determinism.rs replay suite, release timings).
cargo test -q --release --test determinism \
    replay_from_mid_boot_checkpoint_is_bit_identical_across_the_ladder

echo "== warm-start campaign smoke (fig2 --from-checkpoint, pooled) =="
# The perf-trajectory step above already ran the serial warm campaign;
# this one re-forks the archive over a 2-worker pool and asserts the
# JSON record: warm job mode, bit-identity with the cold goldens, and a
# measured multiplier.
cargo run --release -q -p mbsim-bench --bin fig2 -- \
    --quick --jobs 2 --from-checkpoint /tmp/fig2_warmstart.ckpt \
    --json /tmp/fig2_warm.json >/dev/null
grep -q '"mode": "warm"' /tmp/fig2_warm.json
grep -q '"bit_identical": true' /tmp/fig2_warm.json
grep -q '"throughput_multiplier"' /tmp/fig2_warm.json
grep -q '"failed": 0' /tmp/fig2_warm.json

echo "== reconfig throughput bench (smoke) =="
cargo bench -q -p mbsim-bench --bench reconfig_throughput

echo "== mb-lint (default platform config) =="
cargo run --release -q -p mbsim --bin mb-lint -- --model "Native C datatypes" --fail-on error

echo "== mb-lint --races (shipped platform config must be race-clean) =="
cargo run --release -q -p mbsim --bin mb-lint -- \
    --races --model "Native C datatypes" --fail-on error

echo "== schedule-perturbation oracle (quick: fifo vs lifo) =="
# The full 4-order oracle runs in the consolidated release pass above;
# this quick 2-order re-run pins the determinism contract in isolation.
MB_SCHED_QUICK=1 cargo test -q --release --test schedule_independence

echo "ci.sh: all checks passed"
