#!/usr/bin/env bash
# Full offline CI gate: formatting, lints, tier-1 build + tests.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# with_daemon URL PATTERN BODY CMD...: boot CMD in the background, poll URL
# until its response matches PATTERN (the last response is kept in
# target/ci_probe.txt), run the shell function BODY, then stop CMD. A trap
# stops CMD if anything in between fails.
with_daemon() {
    local url=$1 pattern=$2 body=$3
    shift 3
    "$@" >/dev/null 2>&1 &
    local pid=$!
    # shellcheck disable=SC2064 # expand $pid now: the trap outlives this call
    trap "kill $pid 2>/dev/null || true" EXIT
    local up=0
    for _ in $(seq 1 240); do
        if curl -sf "$url" -o target/ci_probe.txt 2>/dev/null && grep -q "$pattern" target/ci_probe.txt; then
            up=1
            break
        fi
        sleep 0.25
    done
    [ "$up" = 1 ] || { echo "never got a response matching '$pattern' from $url" >&2; exit 1; }
    "$body"
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    trap - EXIT
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1 and workspace tests at the default thread count: cargo test -q --workspace"
cargo test -q --workspace

echo "==> workspace tests, single-threaded pool (MUSE_THREADS=1)"
MUSE_THREADS=1 cargo test -q --workspace

echo "==> tier-1 tests, SIMD disabled (MUSE_SIMD=0): scalar kernels must stand alone"
MUSE_SIMD=0 cargo test -q

echo "==> benches compile"
cargo bench --workspace --no-run

echo "==> perf gate: kernels bench vs committed baseline (each rule first proves it fails on doctored inputs)"
scripts/perf_gate.sh check

echo "==> muse-trace: record a short training trace and analyze it"
cargo run -q --release -p muse-eval -- fig4 --epochs 2 --trace target/ci_eval_trace.jsonl >/dev/null
cargo run -q --release -p muse-trace -- report target/ci_eval_trace.jsonl | tee target/ci_trace_report.txt | grep -q "training runs:"
cargo run -q --release -p muse-trace -- flame target/ci_eval_trace.jsonl --out target/ci_flame.txt
# training stacks are rooted at the scheduler span since the fleet scheduler landed
grep -Eq '^(sched\.job;)?train\.fit' target/ci_flame.txt
cargo run -q --release -p muse-trace -- diff target/ci_eval_trace.jsonl target/ci_eval_trace.jsonl >/dev/null
# the backward pass must dominate the exact span profile
grep -q 'dominant: .*backward' target/ci_trace_report.txt
# per-op backward histograms keep their names (they export as
# muse_autograd_backward_<op>_seconds)
for op in conv2d kl_between_fused; do
    grep -q "\"autograd.backward.$op\"" target/ci_eval_trace.jsonl || {
        echo "autograd.backward.$op histogram missing from the fig4 trace" >&2
        exit 1
    }
done
echo "    report, flame, self-diff OK; backward pass dominant; per-op backward histograms present"

echo "==> live /metrics endpoint: serve, scrape, validate exposition"
METRICS_ADDR=127.0.0.1:19664
metrics_checks() {
    cp target/ci_probe.txt target/ci_metrics.txt
    cargo run -q --release -p muse-trace -- promcheck target/ci_metrics.txt
    grep -q '^muse_build_info{' target/ci_metrics.txt || {
        echo "muse_build_info gauge missing from muse-eval /metrics exposition" >&2
        exit 1
    }
    curl -sf "http://$METRICS_ADDR/status" | grep -q '"enabled":true'
}
with_daemon "http://$METRICS_ADDR/metrics" '^muse_kernel_calls_total' metrics_checks \
    cargo run -q --release -p muse-eval -- fig4 --epochs 1 --serve-metrics "$METRICS_ADDR" --linger-ms 30000
echo "    /metrics exposition well-formed, /status live"

echo "==> muse-serve daemon: train checkpoint, boot, ingest, forecast, promcheck"
SERVE_CKPT=target/ci_serve.ckpt
SERVE_ADDR=127.0.0.1:19665
cargo run -q --release -p muse-eval -- fig4 --epochs 1 --save-checkpoint "$SERVE_CKPT" >/dev/null
serve_checks() {
    cp target/ci_probe.txt target/ci_serve_health.json
    curl -sf "http://$SERVE_ADDR/stats" -o target/ci_serve_stats.json
    frame_len=$(grep -o '"frame_len":[0-9]*' target/ci_serve_stats.json | head -1 | cut -d: -f2)
    capacity=$(grep -o '"window_capacity":[0-9]*' target/ci_serve_stats.json | head -1 | cut -d: -f2)
    [ -n "$frame_len" ] && [ -n "$capacity" ] || { echo "/stats missing frame_len/window_capacity" >&2; exit 1; }
    # The quality tracker interns its families at boot: they export before
    # the first ingest.
    curl -sf "http://$SERVE_ADDR/metrics" -o target/ci_serve_boot_metrics.txt
    for family in muse_serve_flow_mean muse_serve_forecasts_scored_total; do
        grep -q "^$family " target/ci_serve_boot_metrics.txt || {
            echo "$family missing from /metrics before the first ingest" >&2
            exit 1
        }
    done
    # Loading the checkpoint decodes every entry straight into its
    # parameter: nothing is left on the tensor arena's shelves at boot.
    grep -qx 'muse_tensor_pool_retained_bytes 0' target/ci_serve_boot_metrics.txt || {
        echo "the booted daemon holds retained arena bytes: $(grep '^muse_tensor_pool_retained_bytes' target/ci_serve_boot_metrics.txt)" >&2
        exit 1
    }
    awk -v n="$frame_len" 'BEGIN {
        printf "{\"frame\":[";
        for (i = 0; i < n; i++) printf "%s%.4f", (i ? "," : ""), 0.3 + 0.2 * sin(i * 0.37);
        printf "]}";
    }' > target/ci_serve_frame.json
    for _ in $(seq 1 "$capacity"); do
        curl -sf -X POST -H 'Content-Type: application/json' \
            --data @target/ci_serve_frame.json "http://$SERVE_ADDR/ingest" -o /dev/null
    done
    curl -sf "http://$SERVE_ADDR/healthz" | grep -q '"ready":true'
    curl -sf "http://$SERVE_ADDR/forecast?horizon=1" -o target/ci_serve_forecast.json
    grep -q '"prediction"' target/ci_serve_forecast.json
    grep -q '"latent_norms"' target/ci_serve_forecast.json
    # No ingest in between: the same window state answers from the rollout memo.
    curl -sf "http://$SERVE_ADDR/forecast?horizon=1" -o target/ci_serve_forecast_hit.json
    memo_hits=$(curl -sf "http://$SERVE_ADDR/stats" | grep -o '"memo_hits":[0-9]*' | cut -d: -f2)
    [ "${memo_hits:-}" = 1 ] || { echo "/stats reports memo_hits=${memo_hits:-missing} after one computed and one memo-hit forecast, want 1" >&2; exit 1; }
    # The hit serves the computed step's bytes; only the request id differs.
    for body in target/ci_serve_forecast.json target/ci_serve_forecast_hit.json; do
        sed 's/"request_id":[0-9]*/"request_id":0/' "$body" > "$body.anon"
    done
    cmp -s target/ci_serve_forecast.json.anon target/ci_serve_forecast_hit.json.anon || {
        echo "the memo-hit /forecast body differs from the computed one beyond request_id" >&2
        exit 1
    }
    # Both forecasts are journaled, awaiting the frame they target.
    curl -sf "http://$SERVE_ADDR/quality" | grep -q '"pending":2' || {
        echo "/quality does not report the two served forecasts as pending" >&2
        exit 1
    }
    curl -sf "http://$SERVE_ADDR/debug/profile" | grep -q '^serve\.forecast\.batch'
    curl -sf "http://$SERVE_ADDR/metrics" -o target/ci_serve_metrics.txt
    cargo run -q --release -p muse-trace -- promcheck target/ci_serve_metrics.txt
    grep -q '^muse_serve_forecasts_total' target/ci_serve_metrics.txt
    grep -q '^muse_serve_rollout_steps_total' target/ci_serve_metrics.txt
    grep -q '^muse_serve_rollout_memo_hits_total' target/ci_serve_metrics.txt
    grep -q '^muse_serve_panics_total' target/ci_serve_metrics.txt
    grep -q '^muse_build_info{' target/ci_serve_metrics.txt
    # Resident memory, read from /proc/self/status at scrape time: data
    # (anonymous pages) and code (file-backed pages) apart, and the peak.
    for family in muse_process_resident_anon_bytes muse_process_resident_file_bytes \
        muse_process_peak_resident_bytes; do
        grep -Eq "^$family [1-9][0-9]*\$" target/ci_serve_metrics.txt || {
            echo "$family missing or zero on /metrics after the forecasts: $(grep "^$family" target/ci_serve_metrics.txt)" >&2
            exit 1
        }
    done
    # The drift rules' state gauges are interned at boot: all three export
    # whether or not a rule has moved.
    for rule in mae_drift flow_level_shift spectral_shift; do
        grep -q "^muse_alert_${rule}_state " target/ci_serve_metrics.txt
    done
}
with_daemon "http://$SERVE_ADDR/healthz" . serve_checks \
    cargo run -q --release -p muse-serve -- --checkpoint "$SERVE_CKPT" --addr "$SERVE_ADDR"
echo "    daemon served $capacity ingests + two forecasts (one a memo hit), live profile up, /metrics well-formed"

echo "==> muse-serve refuses a checkpoint with one flipped byte (crc32 trailer)"
CORRUPT_CKPT=target/ci_serve_corrupt.ckpt
cp "$SERVE_CKPT" "$CORRUPT_CKPT"
mid=$(($(wc -c <"$CORRUPT_CKPT") / 2))
byte=$(od -An -tu1 -j "$mid" -N1 "$CORRUPT_CKPT" | tr -d ' ')
# shellcheck disable=SC2059 # the format is the octal escape of the flipped byte
printf "\\$(printf '%03o' $((byte ^ 0xff)))" | dd of="$CORRUPT_CKPT" bs=1 seek="$mid" conv=notrunc status=none
status=0
timeout 10 cargo run -q --release -p muse-serve --bin muse-serve -- --checkpoint "$CORRUPT_CKPT" \
    --addr 127.0.0.1:0 2>target/ci_corrupt_serve.txt || status=$?
if [ "$status" = 0 ] || [ "$status" = 124 ]; then
    echo "muse-serve did not refuse a corrupt checkpoint within 10 s (exit $status)" >&2
    exit 1
fi
grep -q checksum target/ci_corrupt_serve.txt || {
    echo "muse-serve refused a corrupt checkpoint without naming the checksum: $(cat target/ci_corrupt_serve.txt)" >&2
    exit 1
}
echo "    flipped byte at offset $mid: exit $status, $(head -1 target/ci_corrupt_serve.txt)"

echo "==> serve quality: replay a seeded level-shift stream, assert the drift alert fires"
QUALITY_ADDR=127.0.0.1:19666
QUALITY_TRACE=target/ci_quality_trace.jsonl
rm -f "$QUALITY_TRACE"
quality_checks() {
    # Stream warmup + 48 live frames with a 3x level shift injected a day before
    # the end; muse-replay exits nonzero unless the periodic drift alert reaches
    # firing while it polls /alerts after the shift.
    cargo run -q --release -p muse-serve --bin muse-replay -- --addr "$QUALITY_ADDR" \
        --steps 48 --shift-at $((capacity + 24)) --expect-firing flow_level_shift \
        | tee target/ci_replay.txt
    grep -q 'detection_latency_frames=' target/ci_replay.txt
    curl -sf "http://$QUALITY_ADDR/quality" -o target/ci_quality.json
    scored=$(grep -o '"scored":[0-9]*' target/ci_quality.json | head -1 | cut -d: -f2)
    [ "${scored:-0}" -gt 0 ] || { echo "/quality scored no forecasts: $(cat target/ci_quality.json)" >&2; exit 1; }
    curl -sf "http://$QUALITY_ADDR/metrics" -o target/ci_quality_metrics.txt
    cargo run -q --release -p muse-trace -- promcheck target/ci_quality_metrics.txt
    grep -q '^muse_quality_mae ' target/ci_quality_metrics.txt
    grep -q '^muse_quality_rmse ' target/ci_quality_metrics.txt
    grep -q '^muse_serve_forecasts_scored_total' target/ci_quality_metrics.txt
    grep -q '^muse_alert_flow_level_shift_state' target/ci_quality_metrics.txt
    grep -q '^muse_alerts_transitions_total' target/ci_quality_metrics.txt
    sleep 2 # the daemon flushes its trace once a second; let the tail land
}
with_daemon "http://$QUALITY_ADDR/healthz" . quality_checks \
    cargo run -q --release -p muse-serve --bin muse-serve -- --checkpoint "$SERVE_CKPT" \
    --addr "$QUALITY_ADDR" --trace "$QUALITY_TRACE"
cargo run -q --release -p muse-trace -- quality "$QUALITY_TRACE" | tee target/ci_quality_report.txt
grep -q 'alert transitions:' target/ci_quality_report.txt
grep -q 'flow_level_shift' target/ci_quality_report.txt
grep -q 'forecast lifecycles' target/ci_quality_report.txt
# the killed daemon's last once-a-second kernel.summary still folds to a profile
cargo run -q --release -p muse-trace -- flame "$QUALITY_TRACE" >target/ci_quality_flame.txt
grep -Eq '^serve\.ingest[ ;]' target/ci_quality_flame.txt
echo "    drift alert fired, quality metrics well-formed, trace reconstructs the story and folds"

echo "==> spectral periodicity: detection vs presets, live sweep, cadence-shift alert"
cargo run -q --release -p muse-eval -- detect | tee target/ci_detect.txt
grep -q 'detect: PASS (3/3 presets)' target/ci_detect.txt
SPECTRAL_ADDR=127.0.0.1:19668
SPECTRAL_TRACE=target/ci_spectral_trace.jsonl
rm -f "$SPECTRAL_TRACE"
spectral_checks() {
    # Stream the hourly-weekly preset, then compress the time base 3x right at
    # the end of the warmup fill: the window's dominant period moves 24 -> 8
    # intervals and the frozen-baseline spectral-shift rule must reach firing.
    cargo run -q --release -p muse-serve --bin muse-replay -- --addr "$SPECTRAL_ADDR" \
        --preset hourly-weekly --steps 672 --shift-at "$capacity" --shift-factor 3 \
        --forecast-every 16 --expect-firing spectral_shift | tee target/ci_spectral_replay.txt
    grep -q 'detection_latency_frames=' target/ci_spectral_replay.txt
    curl -sf "http://$SPECTRAL_ADDR/spectrum" -o target/ci_spectrum.json
    grep -q '"dominant":8' target/ci_spectrum.json
    curl -sf "http://$SPECTRAL_ADDR/metrics" -o target/ci_spectral_metrics.txt
    cargo run -q --release -p muse-trace -- promcheck target/ci_spectral_metrics.txt
    grep -q '^muse_spectral_period_intervals 8' target/ci_spectral_metrics.txt
    grep -q '^muse_spectral_power_share' target/ci_spectral_metrics.txt
    grep -q '^muse_alert_spectral_shift_state 2' target/ci_spectral_metrics.txt
    sleep 2 # the daemon flushes its trace once a second; let the tail land
}
with_daemon "http://$SPECTRAL_ADDR/healthz" . spectral_checks \
    cargo run -q --release -p muse-serve --bin muse-serve -- --checkpoint "$SERVE_CKPT" \
    --addr "$SPECTRAL_ADDR" --trace "$SPECTRAL_TRACE" --spectral-every 96
cargo run -q --release -p muse-trace -- spectrum "$SPECTRAL_TRACE" | tee target/ci_spectrum_report.txt
grep -q 'PERIOD SHIFT' target/ci_spectrum_report.txt
grep -q '24 -> 8 intervals' target/ci_spectrum_report.txt
grep -q 'final spectral alert state: firing' target/ci_spectrum_report.txt
echo "    presets detected 3/3, cadence shift 24->8 fired spectral_shift, trace tells the story"

echo "==> perfbench: self-tests and BENCHMARK.json consistency"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench smoke: serve-nowcast under concurrent load, every forecast checked bit-for-bit"
bash perfbench/run.sh --workload serve-nowcast --seed 1 --seconds 2 --trace 0 > target/ci_perfbench.txt
tail -n 1 target/ci_perfbench.txt | grep -q '"correct":true' || {
    echo "perfbench serve-nowcast smoke did not report \"correct\":true: $(tail -n 1 target/ci_perfbench.txt)" >&2
    exit 1
}
echo "    benchmark self-tests pass, live daemon answered every checked forecast bit-for-bit"

echo "==> perfbench smoke: train-eval, per-target multi-step forecasts equal the batched rollout bit-for-bit"
bash perfbench/run.sh --workload train-eval --seed 1 --seconds 1 --trace 0 > target/ci_perfbench_train.txt
tail -n 1 target/ci_perfbench_train.txt | grep -q '"correct":true' || {
    echo "perfbench train-eval smoke did not report \"correct\":true: $(tail -n 1 target/ci_perfbench_train.txt)" >&2
    exit 1
}
echo "    rollout at batch size 1 and at the full target count agree, parameters match the reference fit"

echo "==> fleet scheduler: fig9 mini-sweep under MUSE_JOBS=2, sched metrics live"
FLEET_ADDR=127.0.0.1:19667
fleet_checks() {
    cp target/ci_probe.txt target/ci_fleet_metrics.txt
    cargo run -q --release -p muse-trace -- promcheck target/ci_fleet_metrics.txt
    grep -q '^muse_sched_active_jobs' target/ci_fleet_metrics.txt || {
        echo "muse_sched_active_jobs gauge missing from fleet /metrics exposition" >&2
        exit 1
    }
    grep -q '^muse_sched_queue_depth' target/ci_fleet_metrics.txt || {
        echo "muse_sched_queue_depth gauge missing from fleet /metrics exposition" >&2
        exit 1
    }
}
with_daemon "http://$FLEET_ADDR/metrics" '^muse_sched_jobs_completed_total' fleet_checks \
    env MUSE_JOBS=2 cargo run -q --release -p muse-eval -- fig9 --scale 0.45 --epochs 3 --max-batches 4 --repeats 1 \
    --serve-metrics "$FLEET_ADDR" --linger-ms 30000
echo "    fleet ran under MUSE_JOBS=2, muse_sched_* families well-formed"

echo "==> simd level gauge: /metrics reports the dispatched instruction set"
grep -q '^muse_simd_level' target/ci_metrics.txt || {
    echo "muse_simd_level gauge missing from /metrics exposition" >&2
    exit 1
}
echo "    muse_simd_level exported"

echo "CI gate passed."
