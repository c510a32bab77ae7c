#!/usr/bin/env bash
# Offline CI: build, test, lint. The workspace has no network dependencies
# (external crates are vendored under vendor/), so this runs anywhere the
# Rust toolchain is installed.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace

# Determinism: the pipeline suite once failed intermittently when a test
# armed the process-global fault plan beside tests that expect none; the
# plan-arming tests of pipeline and index-store now have binaries of their
# own. Run both suites 20 times at the default thread count; any failure
# stops CI.
for run in $(seq 1 20); do
  cargo test --release -q -p pipeline -p index-store --lib --tests >/tmp/pipeline_repeat.log 2>&1 \
    || { echo "pipeline/index-store suites failed on run $run of 20"; cat /tmp/pipeline_repeat.log; exit 1; }
done

cargo clippy --workspace --all-targets -- -D warnings

# perfbench is a package of its own outside the workspace, so the steps
# above never compile it. Lint, build and test it from its manifest, so
# that a change to a service API it calls fails here and not when the
# benchmark runs.
cargo clippy --offline --all-targets --manifest-path crates/server/examples/perfbench/Cargo.toml -- -D warnings
cargo test --release --offline --manifest-path crates/server/examples/perfbench/Cargo.toml

# Frontend perf smoke: re-measure the parse+CPG pass and fail on a >20%
# throughput regression against the last `interned` point recorded in
# BENCH_trajectory.json. Measures only (no append), so CI runs do not
# rewrite the committed trajectory.
FRONTEND_GATE=1 FRONTEND_APPEND=0 cargo bench -p bench --bench frontend

# Telemetry smoke: run the 17 detectors (table1) and the CCD sweep
# (table9) in one process with telemetry on, then validate the emitted
# JSON report — it must parse and contain a stage histogram for every CCC
# detector plus the CCD score-cache and edit-distance pruning counters.
./target/release/tables table1 table9 --telemetry --out /tmp/t.txt \
  --telemetry-out /tmp/BENCH_ci_run.json >/dev/null
./target/release/validate_telemetry /tmp/BENCH_ci_run.json

# Service smoke: start the analysis daemon on an ephemeral port, run the
# loadgen smoke burst against it over real sockets (health + typed scan /
# clone-check checks), then SIGTERM it and require a graceful drain.
PORT_FILE=$(mktemp)
./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
  >/tmp/serve_ci.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "serve never wrote its port"; cat /tmp/serve_ci.log; exit 1; }
./target/release/loadgen smoke --addr "127.0.0.1:$(cat "$PORT_FILE")"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained and stopped" /tmp/serve_ci.log
rm -f "$PORT_FILE"

# Observability smoke: restart the daemon with tracing on and an access
# log, validate the full /metrics Prometheus exposition, send a traced
# request with a caller-chosen X-Trace-Id, and require the echoed id, the
# buffered span tree (parse/cpg-build/query spans, plain and Chrome
# formats) and the access-log line for the request.
PORT_FILE=$(mktemp)
ACCESS_LOG=$(mktemp)
./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
  --access-log "$ACCESS_LOG" >/tmp/serve_obs.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "obs serve never wrote its port"; cat /tmp/serve_obs.log; exit 1; }
OBS_ADDR="127.0.0.1:$(cat "$PORT_FILE")"
./target/release/loadgen observability --addr "$OBS_ADDR"
# Independent curl-level check of the same contract: exposition content
# type, a counter for the traced scan, and the trace id echo. (Bodies are
# saved to files before grepping: `grep -q` closing the pipe early would
# otherwise make curl fail with a write error under pipefail.)
curl -sf "http://$OBS_ADDR/metrics" -o /tmp/obs_metrics.txt
grep -q '^http_requests_total{' /tmp/obs_metrics.txt \
  || { echo "metrics missing http_requests_total"; exit 1; }
curl -sfD /tmp/obs_headers.txt -o /dev/null -X POST \
  -H "X-Trace-Id: 00000000c1c1c1c1" \
  --data '{"v":1,"kind":"scan","source":"function g(address a) public { a.send(3); }"}' \
  "http://$OBS_ADDR/v1/scan" 2>/dev/null || true
grep -qi "x-trace-id: 00000000c1c1c1c1" /tmp/obs_headers.txt \
  || { echo "daemon did not echo X-Trace-Id"; cat /tmp/obs_headers.txt; exit 1; }
curl -sf "http://$OBS_ADDR/debug/trace/00000000c1c1c1c1" -o /tmp/obs_trace.txt
grep -q '"trace_id":"00000000c1c1c1c1"' /tmp/obs_trace.txt \
  || { echo "trace not fetchable by id"; exit 1; }
# Keep-alive over the new transport: two requests in one curl invocation
# must reuse the connection (the daemon no longer closes after each
# response) and both succeed.
curl -sfv "http://$OBS_ADDR/health" "http://$OBS_ADDR/health" \
  -o /dev/null -o /dev/null 2>/tmp/obs_keepalive.txt
grep -qi "re-using existing connection" /tmp/obs_keepalive.txt \
  || { echo "daemon did not keep the connection alive"; cat /tmp/obs_keepalive.txt; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained and stopped" /tmp/serve_obs.log
grep -q '"outcome":"ok"' "$ACCESS_LOG" || { echo "access log empty"; cat "$ACCESS_LOG"; exit 1; }
rm -f "$PORT_FILE" "$ACCESS_LOG"

# Tracing-overhead gate: measure the serve/loadgen burst with tracing off
# and on against one warm in-process daemon; tracing on must keep at
# least 95% of the untraced throughput. Measures only (no append), so CI
# runs do not rewrite the committed trajectory.
./target/release/loadgen trace-overhead --no-append --requests 192 --concurrency 8

# Serve-throughput gate: a warm keep-alive burst against an in-process
# daemon must stay within 20% of the last keep-alive serve_loadgen point
# in BENCH_trajectory.json (one internal re-measure on a miss — single
# bursts are noisy). Measures only, never appends.
./target/release/loadgen serve-gate --requests 2048 --concurrency 8

# Chaos smoke: restart the daemon under an armed fault plan (every
# in-process injection point at 1-5% rates plus request-level errors),
# drive it with the retrying chaos loadgen, and require (a) zero requests
# breaking through fault isolation, (b) the daemon process still alive
# and healthy after the burst, (c) a graceful drain — i.e. injected
# faults never kill the process.
PORT_FILE=$(mktemp)
FAULT_SPEC="parse:err:0.02,cpg:panic:0.01,query:delay:5ms,ccc:panic:0.01,ccd:err:0.01,server:err:0.05" \
FAULT_SEED=42 \
./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
  --breaker-threshold 5 --breaker-open-ms 200 \
  >/tmp/serve_chaos.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "chaos serve never wrote its port"; cat /tmp/serve_chaos.log; exit 1; }
grep -q "fault injection armed" /tmp/serve_chaos.log
./target/release/loadgen chaos --addr "127.0.0.1:$(cat "$PORT_FILE")"
kill -0 "$SERVE_PID" || { echo "daemon died under chaos"; cat /tmp/serve_chaos.log; exit 1; }
# (Breaker open/half-open/recovery is asserted deterministically by the
# chaos integration suite run under `cargo test` above.)
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained and stopped" /tmp/serve_chaos.log
rm -f "$PORT_FILE"

# Warm-start smoke: a cold boot with --snapshot-dir must commit
# generation 1; a restart must warm-load it (no rebuild) and serve the
# same corpus through /v1/index/status.
SNAP_DIR=$(mktemp -d)
PORT_FILE=$(mktemp)
./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
  --snapshot-dir "$SNAP_DIR" >/tmp/serve_snap_cold.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "cold snapshot serve never wrote its port"; cat /tmp/serve_snap_cold.log; exit 1; }
grep -q "committed as snapshot generation 1" /tmp/serve_snap_cold.log \
  || { echo "cold boot did not commit a snapshot"; cat /tmp/serve_snap_cold.log; exit 1; }
curl -sf "http://127.0.0.1:$(cat "$PORT_FILE")/v1/index/status" -o /tmp/snap_status.txt
grep -q '"generation":1' /tmp/snap_status.txt \
  || { echo "unexpected index status after cold boot"; cat /tmp/snap_status.txt; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

# Crash-during-compaction: restart warm under a fault plan that holds
# the snapshot commit in its most adversarial window (gen-2 data file
# written, CURRENT pointer not yet flipped), kill -9 the daemon inside
# that window, and require the next start to load generation 1 as if the
# torn commit never happened.
: > "$PORT_FILE"
FAULT_SPEC="index:delay:1500ms" FAULT_SEED=1 \
./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
  --snapshot-dir "$SNAP_DIR" >/tmp/serve_snap_kill.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "warm serve never wrote its port"; cat /tmp/serve_snap_kill.log; exit 1; }
grep -q "warm start: generation 1" /tmp/serve_snap_kill.log \
  || { echo "second boot was not a warm start"; cat /tmp/serve_snap_kill.log; exit 1; }
SNAP_ADDR="127.0.0.1:$(cat "$PORT_FILE")"
curl -sf -X POST "http://$SNAP_ADDR/v1/index/insert" \
  --data '{"v":1,"source":"contract CiDelta { function f() public { msg.sender.transfer(1); } }"}' \
  -o /dev/null
curl -s -X POST "http://$SNAP_ADDR/v1/index/compact" -o /dev/null 2>/dev/null &
sleep 0.6
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
: > "$PORT_FILE"
./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
  --snapshot-dir "$SNAP_DIR" >/tmp/serve_snap_recover.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "recovery serve never wrote its port"; cat /tmp/serve_snap_recover.log; exit 1; }
grep -q "warm start: generation 1" /tmp/serve_snap_recover.log \
  || { echo "torn commit broke the warm start"; cat /tmp/serve_snap_recover.log; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
rm -rf "$SNAP_DIR"
rm -f "$PORT_FILE"

# Warm-start ratio gate: snapshot load must be at least 10x faster than
# the cold rebuild (a floor a debug build clears; the committed
# index_warmstart trajectory point records the release-build margin).
# Measures only, never appends. The timed load includes replaying a
# 24-insert WAL tail, the real post-crash boot shape.
./target/release/loadgen warmstart --no-append --requests 128 --concurrency 8

# WAL torture loop: acknowledged inserts must survive kill -9 and replay
# byte-identically, under three crash windows. A reference daemon is
# never killed; its /v1/clone-check responses after one insert (REF1)
# and after two (REF2) are the ground truth every recovery is compared
# against with cmp.
WAL_X1='{"v":1,"source":"contract WalA { uint total; function add(uint v) public { total += v; } }","id":9001}'
WAL_X2='{"v":1,"source":"contract WalB { uint sum; function bump(uint n) public { sum += n; } }","id":9002}'
WAL_PROBE='{"v":1,"kind":"clone_check","source":"contract WalC { uint acc; function grow(uint k) public { acc += k; } }"}'
wal_boot() { # wal_boot <snap_dir> <log> [extra serve args...]
  local snap_dir=$1 log=$2; shift 2
  : > "$PORT_FILE"
  ./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 \
    --snapshot-dir "$snap_dir" "$@" >"$log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
  done
  [ -s "$PORT_FILE" ] || { echo "torture serve never wrote its port"; cat "$log"; exit 1; }
  WAL_ADDR="127.0.0.1:$(cat "$PORT_FILE")"
}
wal_insert() { # wal_insert <body>
  curl -sf -X POST "http://$WAL_ADDR/v1/index/insert" --data "$1" -o /dev/null
}
PORT_FILE=$(mktemp)

# Reference: uninterrupted daemon, both inserts acknowledged.
WAL_REF_DIR=$(mktemp -d)
wal_boot "$WAL_REF_DIR" /tmp/serve_wal_ref.log
wal_insert "$WAL_X1"
curl -sf -X POST "http://$WAL_ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_ref1.json
wal_insert "$WAL_X2"
curl -sf -X POST "http://$WAL_ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_ref2.json
if cmp -s /tmp/wal_ref1.json /tmp/wal_ref2.json; then
  echo "torture probe does not distinguish the inserts"; exit 1
fi
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
rm -rf "$WAL_REF_DIR"

# Scenario 1: kill -9 with both acknowledged deltas only in the WAL
# (default batch fsync). The restart must replay both.
WAL_DIR=$(mktemp -d)
wal_boot "$WAL_DIR" /tmp/serve_wal_kill.log
wal_insert "$WAL_X1"
wal_insert "$WAL_X2"
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
wal_boot "$WAL_DIR" /tmp/serve_wal_recover.log
grep -q "warm start: generation 1 (18 docs, 2 replayed from WAL)" /tmp/serve_wal_recover.log \
  || { echo "kill -9 lost acknowledged WAL deltas"; cat /tmp/serve_wal_recover.log; exit 1; }
curl -sf -X POST "http://$WAL_ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_got.json
cmp /tmp/wal_ref2.json /tmp/wal_got.json \
  || { echo "recovered responses diverged from the uninterrupted run"; exit 1; }
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
rm -rf "$WAL_DIR"

# Scenario 2: kill -9 inside a fault-delayed wal/append — the second
# insert is neither acknowledged nor on disk (the delay fires before the
# write), so recovery must serve exactly the REF1 state.
WAL_DIR=$(mktemp -d)
wal_boot "$WAL_DIR" /tmp/serve_wal_append.log
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"   # commit generation 1 cleanly
export FAULT_SPEC="wal/append:delay:1500ms" FAULT_SEED=1
wal_boot "$WAL_DIR" /tmp/serve_wal_append2.log
unset FAULT_SPEC FAULT_SEED
wal_insert "$WAL_X1"                          # delayed, but acknowledged
curl -s -X POST "http://$WAL_ADDR/v1/index/insert" --data "$WAL_X2" -o /dev/null &
sleep 0.5                                     # inside X2's append delay
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
wal_boot "$WAL_DIR" /tmp/serve_wal_append3.log
grep -q "warm start: generation 1 (17 docs, 1 replayed from WAL)" /tmp/serve_wal_append3.log \
  || { echo "append-window crash recovered the wrong state"; cat /tmp/serve_wal_append3.log; exit 1; }
curl -sf -X POST "http://$WAL_ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_got.json
cmp /tmp/wal_ref1.json /tmp/wal_got.json \
  || { echo "append-window recovery diverged from REF1"; exit 1; }
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
rm -rf "$WAL_DIR"

# Scenario 3: kill -9 inside a fault-delayed wal/fsync under
# --wal-fsync always. The record is in the page cache before the fsync
# starts, and kill -9 (unlike power loss) does not drop the page cache:
# both inserts must replay.
WAL_DIR=$(mktemp -d)
wal_boot "$WAL_DIR" /tmp/serve_wal_fsync.log
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
export FAULT_SPEC="wal/fsync:delay:1500ms" FAULT_SEED=1
wal_boot "$WAL_DIR" /tmp/serve_wal_fsync2.log --wal-fsync always
unset FAULT_SPEC FAULT_SEED
wal_insert "$WAL_X1"
curl -s -X POST "http://$WAL_ADDR/v1/index/insert" --data "$WAL_X2" -o /dev/null &
sleep 0.5                                     # written, fsync still held
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
wal_boot "$WAL_DIR" /tmp/serve_wal_fsync3.log
grep -q "warm start: generation 1 (18 docs, 2 replayed from WAL)" /tmp/serve_wal_fsync3.log \
  || { echo "fsync-window crash lost a written record"; cat /tmp/serve_wal_fsync3.log; exit 1; }
curl -sf -X POST "http://$WAL_ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_got.json
cmp /tmp/wal_ref2.json /tmp/wal_got.json \
  || { echo "fsync-window recovery diverged from REF2"; exit 1; }
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"
rm -rf "$WAL_DIR"
rm -f "$PORT_FILE"

# Durability gate: group commit (batch:5, the serve default) must keep
# at least half the fsync-never insert throughput and stay above the
# floor recorded by the committed wal_durability trajectory point.
# Measures only, never appends.
./target/release/loadgen durability --no-append --requests 192 --concurrency 8

# Kill-and-resume smoke: start a checkpointed batch run, SIGKILL it once
# its first shard is journaled, resume it, and require the resumed output
# to be byte-identical to an uninterrupted run.
CKPT=/tmp/ci_ckpt_$$.json
./target/release/tables figure2 table4 --scale 0.02 >/tmp/tables_ref.txt
./target/release/tables figure2 table4 --scale 0.02 --checkpoint "$CKPT" \
  >/dev/null 2>/dev/null &
TABLES_PID=$!
for _ in $(seq 1 600); do
  grep -q '"name":"figure2"' "$CKPT" 2>/dev/null && break
  kill -0 "$TABLES_PID" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$TABLES_PID" 2>/dev/null || true
wait "$TABLES_PID" 2>/dev/null || true
./target/release/tables figure2 table4 --scale 0.02 --checkpoint "$CKPT" --resume \
  >/tmp/tables_resumed.txt 2>/tmp/tables_resume.log
cmp /tmp/tables_ref.txt /tmp/tables_resumed.txt \
  || { echo "resumed batch output diverged"; exit 1; }
grep -q "\[resume\] replaying" /tmp/tables_resume.log
rm -f "$CKPT" "${CKPT%.json}.tmp"
