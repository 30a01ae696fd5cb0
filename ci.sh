#!/usr/bin/env sh
# Hermetic CI entry point: builds, tests, and lints the whole workspace
# without touching the network. `--offline` is load-bearing — it proves
# the zero-dependency policy (DESIGN.md §5) holds: every crate in
# Cargo.lock is a workspace member, so a bare Rust toolchain on an
# air-gapped machine is enough.
#
# Usage: ./ci.sh [stage]
#
# With no argument every stage runs in order. With a stage name only that
# stage runs (after whatever build it needs): build, test, fmt, clippy,
# lint, doc, hot-path, sim-corun, faults, fault-recovery, serve,
# cluster-smoke, cluster-scale, chaos-smoke, bench-smoke, perf-gate.
set -eu

cd "$(dirname "$0")"
ROOT="$PWD"

stage_build() {
    echo "==> cargo build --workspace --release --offline"
    cargo build --workspace --release --offline
}

stage_test() {
    echo "==> cargo test --workspace -q --offline"
    cargo test --workspace -q --offline
}

stage_fmt() {
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
}

stage_clippy() {
    echo "==> cargo clippy --workspace --offline -- -D warnings"
    cargo clippy --workspace --offline -- -D warnings
}

# One knob reader, one worker pool (DESIGN.md §7): non-test Rust under
# crates/ reads the environment only through flep_sim_core::knob — plus
# the two artifact-destination readers, FLEP_JSON in flep-bench's
# `emit_json` and FLEP_BENCH_JSON in its `gate::write_artifact` — and
# starts threads only through flep_sim_core::runner. Any `env::var` /
# `env::{` or `thread::scope` / `thread::spawn` / `thread::Builder` /
# `thread::{` path counts, `use` lines included. One event queue
# (DESIGN.md §13): every product driver steps a flat
# `flep_sim_core::Simulation`, so `PartitionedSimulation` may be named
# only by its definition in sim-core's partition.rs and its re-export in
# sim-core's lib.rs. Comment lines and everything from a file's
# `#[cfg(test)]` module on are skipped, as are integration-test
# directories.
stage_lint() {
    echo "==> lint: env reads through sim-core knob, threads through sim-core runner, one event queue"
    found=$(find crates -name '*.rs' -not -path '*/tests/*' | sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /env::(var|\{)|thread::(scope|spawn|Builder|\{)|PartitionedSimulation/ { print f ":" FNR ": " $0 }' "$f"
    done)
    bad=$(printf '%s\n' "$found" | grep -v '^$' \
        | grep -v '^crates/sim-core/src/knob\.rs:[0-9]*: .*env::var' \
        | grep -v '^crates/bench/src/lib\.rs:[0-9]*: .*env::var("FLEP_JSON")' \
        | grep -v '^crates/bench/src/gate\.rs:[0-9]*: .*env::var("FLEP_BENCH_JSON")' \
        | grep -v '^crates/sim-core/src/runner\.rs:[0-9]*: .*thread::scope' \
        | grep -v '^crates/sim-core/src/partition\.rs:[0-9]*: .*PartitionedSimulation' \
        | grep -v '^crates/sim-core/src/lib\.rs:[0-9]*: pub use partition::PartitionedSimulation;$' || true)
    if [ -n "$bad" ]; then
        echo "lint: env read outside flep_sim_core::knob, thread fan-out outside flep_sim_core::runner," >&2
        echo "      or a PartitionedSimulation outside its sim-core definition:" >&2
        printf '%s\n' "$bad" >&2
        exit 1
    fi
    echo "lint: every env read, thread fan-out and event-queue driver goes through sim-core"
}

# Rustdoc with warnings denied: a public doc that links to a deleted or
# private item fails here instead of rendering as dead text.
stage_doc() {
    echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

# Perf smoke: a handful of samples of the sim-core targets (event-queue
# churn, engine dispatch, the `SimTime::scale` completion chain), of
# the standalone device runs (original and persistent shape; the
# original one is the non-preemptive dispatcher's CTA refill path,
# DESIGN.md §8) and of one overloaded serving cell (the frontend host
# path, DESIGN.md §10), each recorded to its own JSON artifact so the hot-path
# perf trajectory is on file for every CI run. Not a gate — timings on
# shared runners are noisy — just a tripwire someone can diff when a
# simulation suddenly crawls.
stage_hot_path() {
    echo "==> perf smoke: sim_core event queue, engine and scale chain -> BENCH_sim_hot_path.json"
    FLEP_BENCH_SAMPLES=5 FLEP_BENCH_WARMUP=1 \
        FLEP_BENCH_JSON="$ROOT/BENCH_sim_hot_path.json" \
        cargo bench -p flep-bench --offline -q -- sim_core/
    echo "==> perf smoke: gpu_sim standalone runs -> BENCH_sim_standalone.json"
    FLEP_BENCH_SAMPLES=5 FLEP_BENCH_WARMUP=1 \
        FLEP_BENCH_JSON="$ROOT/BENCH_sim_standalone.json" \
        cargo bench -p flep-bench --offline -q -- gpu_sim/
    echo "==> perf smoke: serve overload cell -> BENCH_serve_cell.json"
    FLEP_BENCH_SAMPLES=5 FLEP_BENCH_WARMUP=1 \
        FLEP_BENCH_JSON="$ROOT/BENCH_serve_cell.json" \
        cargo bench -p flep-bench --offline -q -- serve/
}

# Perf smoke for the simulator world hot path: end-to-end co-runs that
# exercise the dense grid table, the incremental contention counters, and
# the SM-placement index (DESIGN.md §8). The artifact feeds the perf-gate
# stage below.
stage_sim_corun() {
    echo "==> perf smoke: sim_corun -> BENCH_sim_corun.json"
    FLEP_BENCH_SAMPLES=3 FLEP_BENCH_WARMUP=1 \
        FLEP_BENCH_JSON="$ROOT/BENCH_sim_corun.json" \
        cargo bench -p flep-bench --offline -q -- sim_corun
}

# Fault injection: the robustness property suite replayed with a pinned
# seed (DESIGN.md §9). The same properties run with a fresh seed in the
# normal test pass above; this pinned pass is the reproducible gate — a
# failure here is a regression, never bad luck.
stage_faults() {
    echo "==> fault injection: property suite with pinned seed"
    FLEP_CHECK_SEED=0xF1E9 FLEP_CHECK_CASES=48 \
        cargo test -p flep-runtime --test faults --offline -q
}

# Recovery-latency smoke: how long the watchdog's escalation ladder takes
# to rescue a high-priority kernel under each fault preset, recorded in
# the same artifact format as the perf smokes above. Simulated time, so
# fully deterministic — but still an artifact, not a gate.
stage_fault_recovery() {
    echo "==> fault recovery: escalation-ladder latency -> BENCH_fault_recovery.json"
    FLEP_FAULT_SEED=7 FLEP_REPEATS=3 \
        FLEP_BENCH_JSON="$ROOT/BENCH_fault_recovery.json" \
        cargo run --release -p flep-bench --bin fault_recovery --offline -q >/dev/null
}

# Serving smoke: the SLO sweep at a reduced horizon with a pinned seed,
# recorded as a perf artifact (which also feeds the perf-gate stage). The
# golden gate is the pinned serve trace
# (crates/flep-serve/tests/golden_serve.rs, re-run here with a pinned
# check seed): any drift in arrivals, admission, EDF order, batching, or
# runtime scheduling fails this stage. The same pinned-seed pass replays
# the held-state property `serving_holds_only_in_flight_jobs`
# (crates/flep-serve/tests/props.rs, at least 64 cases whatever
# FLEP_CHECK_CASES says): a serving run never holds a job beyond its
# tenants' in-flight batches.
stage_serve() {
    echo "==> serve smoke: slo sweep -> BENCH_serve_slo.json"
    FLEP_SEED=42 FLEP_REPEATS=1 FLEP_SERVE_HORIZON_MS=200 \
        FLEP_BENCH_JSON="$ROOT/BENCH_serve_slo.json" \
        cargo run --release -p flep-bench --bin serve_slo --offline -q >/dev/null
    FLEP_CHECK_SEED=0xF1E9 FLEP_CHECK_CASES=48 \
        cargo test -p flep-serve --offline -q
}

# The thread-count replay shared by the sweep stages below:
#   replay_rows LABEL ROWS BIN REPEATS_T1 REPEATS_T8 ARTIFACT [VAR=VALUE...]
# runs flep-bench's BIN sweep at FLEP_THREADS=1 (FLEP_REPEATS=REPEATS_T1,
# writing its perf artifact to ARTIFACT unless that is empty) and at
# FLEP_THREADS=8 (FLEP_REPEATS=REPEATS_T8), both with FLEP_JSON=- and the
# given VAR=VALUE settings, keeps each run's JSON rows in
# target/ROWS_rows_t1.json and target/ROWS_rows_t8.json, and fails
# unless the two are byte-identical.
replay_rows() {
    label=$1 rows=$2 bin=$3 repeats_t1=$4 repeats_t8=$5 artifact=$6
    shift 6
    env "$@" FLEP_REPEATS="$repeats_t1" ${artifact:+"FLEP_BENCH_JSON=$artifact"} \
        FLEP_JSON=- FLEP_THREADS=1 \
        cargo run --release -p flep-bench --bin "$bin" --offline -q \
        | grep '^{' > "$ROOT/target/${rows}_rows_t1.json"
    env "$@" FLEP_REPEATS="$repeats_t8" FLEP_JSON=- FLEP_THREADS=8 \
        cargo run --release -p flep-bench --bin "$bin" --offline -q \
        | grep '^{' > "$ROOT/target/${rows}_rows_t8.json"
    if ! cmp -s "$ROOT/target/${rows}_rows_t1.json" "$ROOT/target/${rows}_rows_t8.json"; then
        echo "$label: sweep rows differ between FLEP_THREADS=1 and 8" >&2
        exit 1
    fi
    echo "$label: sweep rows byte-identical at FLEP_THREADS=1 and 8"
}

# Cluster smoke (DESIGN.md §11): the pinned-seed failover suites — device
# failure domains, kill-migrate-restart recovery, ledger reconciliation —
# plus the cluster failover sweep recorded as BENCH_cluster.json. The
# sweep's deterministic rows are compared across worker-thread counts:
# any byte of divergence between a serial and a parallel run fails the
# stage.
stage_cluster_smoke() {
    echo "==> cluster smoke: failover suites + sweep -> BENCH_cluster.json"
    cargo test -p flep-runtime --test cluster --offline -q
    cargo test -p flep-serve --test failover --offline -q
    replay_rows "cluster smoke" cluster cluster_failover 3 1 \
        "$ROOT/BENCH_cluster.json" FLEP_SEED=42
}

# Cluster scale-out (DESIGN.md §13): the epoch driver's headline.
# The full sweep (d = 8..1024, watchdog armed, faults off so the epoch
# driver engages) records BENCH_cluster_scale.json for the perf gate:
# `makespan_*` rows are deterministic simulated time, and the permille
# ratio row pins per-device wall-clock at d=1024 to within the gated
# bound of d=8. A reduced sweep is then replayed at FLEP_THREADS=1 and 8
# and its deterministic rows compared byte-for-byte, the same
# thread-count gate the failover sweep gets.
stage_cluster_scale() {
    echo "==> cluster scale-out: sweep -> BENCH_cluster_scale.json"
    FLEP_SEED=42 FLEP_REPEATS=3 FLEP_THREADS=1 \
        FLEP_BENCH_JSON="$ROOT/BENCH_cluster_scale.json" \
        cargo run --release -p flep-bench --bin cluster_scale --offline -q
    replay_rows "cluster scale" scale cluster_scale 1 1 "" \
        FLEP_SEED=42 FLEP_SCALE_DEVICES=8,64
}

# Chaos smoke (DESIGN.md §14): the health-aware control plane under
# seeded correlated outages. The pinned-seed chaos and breaker suites
# prove ledger conservation, quarantine isolation, and bounded-fault
# liveness; the chaos sweep (rate x topology) records BENCH_chaos.json
# for the perf gate, and its deterministic rows are compared between a
# serial and a parallel run — any byte of divergence fails the stage.
stage_chaos_smoke() {
    echo "==> chaos smoke: chaos + breaker + brownout suites"
    FLEP_CHECK_SEED=0xF1E9 FLEP_CHECK_CASES=32 \
        cargo test -p flep-runtime --test chaos --offline -q
    cargo test -p flep-runtime --test breaker --offline -q
    cargo test -p flep-serve --test brownout --offline -q
    echo "==> chaos sweep -> BENCH_chaos.json"
    replay_rows "chaos smoke" chaos chaos_sweep 3 1 \
        "$ROOT/BENCH_chaos.json" FLEP_SEED=42
}

# Benchmark smoke: builds flepbench (a package of its own, with path
# dependencies on crates/*) against the working tree and runs each of its
# three workloads traced for a short slice. The traced mode replays every
# cell through flepbench's timing shims and compares the result with the
# crates' own drivers, so this stage fails when flepbench no longer
# builds, when a replay diverges, or when any cell fails its check. It
# writes only gitignored paths (.bench_build/, flepbench/spans/).
stage_bench_smoke() {
    for w in corun_pairs serve_overload fleet_chaos; do
        echo "==> bench smoke: flepbench --workload $w --seed 1 --seconds 2 --trace 1"
        last=$(CARGO_TARGET_DIR="$ROOT/.bench_build" \
            cargo run --release --offline --locked -q \
            --manifest-path "$ROOT/flepbench/Cargo.toml" -- \
            --workload "$w" --seed 1 --seconds 2 --trace 1 | tail -n 1)
        case "$last" in
            '{"correct": true, '*'"failed": 0, '*) ;;
            *)
                echo "bench smoke: $w did not check out: $last" >&2
                exit 1
                ;;
        esac
    done
    echo "bench smoke: flepbench builds and every workload replays correct"
}

# Perf-regression gate: fails if the medians recorded by the sim-corun,
# serve, fault-recovery, cluster-smoke, cluster-scale, or chaos-smoke
# stages regressed more than FLEP_PERF_TOLERANCE percent (default 15)
# against the checked-in baselines. One invocation checks every pair and
# reports every regressing row before failing, so a regression in the
# first artifact cannot mask one in the last. sim_corun medians are
# wall-clock (the tolerance absorbs runner noise); serve_slo /
# fault_recovery / cluster medians are simulated time, so any drift
# there is a real behavior change.
stage_perf_gate() {
    echo "==> perf gate: recorded artifacts vs baselines/"
    cargo run --release -p flep-bench --bin perf_gate --offline -q -- \
        "$ROOT/BENCH_sim_corun.json" "$ROOT/baselines/BENCH_sim_corun.json" \
        "$ROOT/BENCH_serve_slo.json" "$ROOT/baselines/BENCH_serve_slo.json" \
        "$ROOT/BENCH_fault_recovery.json" "$ROOT/baselines/BENCH_fault_recovery.json" \
        "$ROOT/BENCH_cluster.json" "$ROOT/baselines/BENCH_cluster.json" \
        "$ROOT/BENCH_cluster_scale.json" "$ROOT/baselines/BENCH_cluster_scale.json" \
        "$ROOT/BENCH_chaos.json" "$ROOT/baselines/BENCH_chaos.json"
}

run_stage() {
    case "$1" in
        build) stage_build ;;
        test) stage_test ;;
        fmt) stage_fmt ;;
        clippy) stage_clippy ;;
        lint) stage_lint ;;
        doc) stage_doc ;;
        hot-path) stage_hot_path ;;
        sim-corun) stage_sim_corun ;;
        faults) stage_faults ;;
        fault-recovery) stage_fault_recovery ;;
        serve) stage_serve ;;
        cluster-smoke) stage_cluster_smoke ;;
        cluster-scale) stage_cluster_scale ;;
        chaos-smoke) stage_chaos_smoke ;;
        bench-smoke) stage_bench_smoke ;;
        perf-gate) stage_perf_gate ;;
        *)
            echo "ci.sh: unknown stage '$1' (want build, test, fmt, clippy, lint," >&2
            echo "       doc, hot-path, sim-corun, faults, fault-recovery, serve," >&2
            echo "       cluster-smoke, cluster-scale, chaos-smoke, bench-smoke," >&2
            echo "       perf-gate)" >&2
            exit 2
            ;;
    esac
}

mkdir -p "$ROOT/target"
if [ $# -ge 1 ]; then
    for s in "$@"; do
        run_stage "$s"
    done
    echo "ci.sh: stage(s) passed: $*"
else
    stage_build
    stage_test
    stage_fmt
    stage_clippy
    stage_lint
    stage_doc
    stage_hot_path
    stage_sim_corun
    stage_faults
    stage_fault_recovery
    stage_serve
    stage_cluster_smoke
    stage_cluster_scale
    stage_chaos_smoke
    stage_bench_smoke
    stage_perf_gate
    echo "ci.sh: all checks passed"
fi
