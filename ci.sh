#!/usr/bin/env bash
# Offline CI: build, test, lint. The workspace has no network dependencies
# (external crates are vendored under vendor/), so this runs anywhere the
# Rust toolchain is installed.
set -euo pipefail
cd "$(dirname "$0")"

# Every daemon a step boots goes through `boot` and every scratch path
# lives under $CI_TMP, so the EXIT trap can kill a daemon a failed check
# left running and remove what the steps made.
CI_TMP=$(mktemp -d)
PORT_FILE=$CI_TMP/port
SERVE_PID=
cleanup() {
  [ -z "$SERVE_PID" ] || kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$CI_TMP"
}
trap cleanup EXIT
# boot <log> [serve args...]: start `serve --corpus 16` on an ephemeral
# port, wait for its port file and set SERVE_PID and ADDR.
boot() {
  local log=$1; shift
  : > "$PORT_FILE"
  ./target/release/serve --port 0 --port-file "$PORT_FILE" --corpus 16 "$@" >"$log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
  done
  [ -s "$PORT_FILE" ] || { echo "serve never wrote its port"; cat "$log"; exit 1; }
  ADDR="127.0.0.1:$(cat "$PORT_FILE")"
}
# stop: SIGTERM the daemon and require a clean exit. crash: kill -9 it.
stop() { kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=; }
crash() { kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true; SERVE_PID=; }

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

# Rustdoc: intra-doc links in the workspace's own crates must resolve, so
# a deleted or renamed item cannot leave a dangling link behind. The
# vendored stand-ins of external crates are not this repository's code to
# lint.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps \
  --exclude proptest --exclude rand --exclude criterion

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
boot /tmp/serve_ci.log
./target/release/loadgen smoke --addr "$ADDR"
stop
grep -q "drained and stopped" /tmp/serve_ci.log

# Observability smoke: restart the daemon with tracing on and an access
# log, validate the full /metrics Prometheus exposition, send a traced
# request with a caller-chosen X-Trace-Id, and require the echoed id, the
# buffered span tree (parse/cpg-build/query spans, plain and Chrome
# formats) and the access-log line for the request.
ACCESS_LOG=$CI_TMP/access.log
boot /tmp/serve_obs.log --access-log "$ACCESS_LOG"
./target/release/loadgen observability --addr "$ADDR"
# Independent curl-level check of the same contract: exposition content
# type, a counter for the traced scan, and the trace id echo. (Bodies are
# saved to files before grepping: `grep -q` closing the pipe early would
# otherwise make curl fail with a write error under pipefail.)
curl -sf "http://$ADDR/metrics" -o /tmp/obs_metrics.txt
grep -q '^http_requests_total{' /tmp/obs_metrics.txt \
  || { echo "metrics missing http_requests_total"; exit 1; }
curl -sfD /tmp/obs_headers.txt -o /dev/null -X POST \
  -H "X-Trace-Id: 00000000c1c1c1c1" \
  --data '{"v":1,"kind":"scan","source":"function g(address a) public { a.send(3); }"}' \
  "http://$ADDR/v1/scan" 2>/dev/null || true
grep -qi "x-trace-id: 00000000c1c1c1c1" /tmp/obs_headers.txt \
  || { echo "daemon did not echo X-Trace-Id"; cat /tmp/obs_headers.txt; exit 1; }
curl -sf "http://$ADDR/debug/trace/00000000c1c1c1c1" -o /tmp/obs_trace.txt
grep -q '"trace_id":"00000000c1c1c1c1"' /tmp/obs_trace.txt \
  || { echo "trace not fetchable by id"; exit 1; }
# Keep-alive over the new transport: two requests in one curl invocation
# must reuse the connection (the daemon no longer closes after each
# response) and both succeed.
curl -sfv "http://$ADDR/health" "http://$ADDR/health" \
  -o /dev/null -o /dev/null 2>/tmp/obs_keepalive.txt
grep -qi "re-using existing connection" /tmp/obs_keepalive.txt \
  || { echo "daemon did not keep the connection alive"; cat /tmp/obs_keepalive.txt; exit 1; }
stop
grep -q "drained and stopped" /tmp/serve_obs.log
grep -q '"outcome":"ok"' "$ACCESS_LOG" || { echo "access log empty"; cat "$ACCESS_LOG"; exit 1; }

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
FAULT_SPEC="parse:err:0.02,cpg:panic:0.01,query:delay:5ms,ccc:panic:0.01,ccd:err:0.01,server:err:0.05" \
FAULT_SEED=42 \
boot /tmp/serve_chaos.log --breaker-threshold 5 --breaker-open-ms 200
grep -q "fault injection armed" /tmp/serve_chaos.log
./target/release/loadgen chaos --addr "$ADDR"
kill -0 "$SERVE_PID" || { echo "daemon died under chaos"; cat /tmp/serve_chaos.log; exit 1; }
# (Breaker open/half-open/recovery is asserted deterministically by the
# chaos integration suite run under `cargo test` above.)
stop
grep -q "drained and stopped" /tmp/serve_chaos.log

# Warm-start smoke: a cold boot with --snapshot-dir must commit
# generation 1; a restart must warm-load it (no rebuild) and serve the
# same corpus through /v1/index/status.
SNAP_DIR=$CI_TMP/snap
boot /tmp/serve_snap_cold.log --snapshot-dir "$SNAP_DIR"
grep -q "committed as snapshot generation 1" /tmp/serve_snap_cold.log \
  || { echo "cold boot did not commit a snapshot"; cat /tmp/serve_snap_cold.log; exit 1; }
curl -sf "http://$ADDR/v1/index/status" -o /tmp/snap_status.txt
grep -q '"generation":1' /tmp/snap_status.txt \
  || { echo "unexpected index status after cold boot"; cat /tmp/snap_status.txt; exit 1; }
stop

# Crash-during-compaction: restart warm under a fault plan that holds
# the snapshot commit in its most adversarial window (gen-2 data file
# written, CURRENT pointer not yet flipped), kill -9 the daemon inside
# that window, and require the next start to load generation 1 as if the
# torn commit never happened, with both acknowledged inserts: one made
# before the compaction (in wal-1.log) and one inside its commit window
# (in wal-2.log, the segment the compaction rotated to).
FAULT_SPEC="index:delay:1500ms" FAULT_SEED=1 \
boot /tmp/serve_snap_kill.log --snapshot-dir "$SNAP_DIR"
grep -q "warm start: generation 1" /tmp/serve_snap_kill.log \
  || { echo "second boot was not a warm start"; cat /tmp/serve_snap_kill.log; exit 1; }
curl -sf -X POST "http://$ADDR/v1/index/insert" \
  --data '{"v":1,"source":"contract CiDelta { function f() public { msg.sender.transfer(1); } }"}' \
  -o /dev/null
curl -s -X POST "http://$ADDR/v1/index/compact" -o /dev/null 2>/dev/null &
sleep 0.3
curl -sf -X POST "http://$ADDR/v1/index/insert" \
  --data '{"v":1,"source":"contract CiLate { uint n; function g(uint k) public { n += k; } }"}' \
  -o /dev/null
sleep 0.3
crash
boot /tmp/serve_snap_recover.log --snapshot-dir "$SNAP_DIR"
grep -q "warm start: generation 1 (18 docs, 2 replayed from WAL)" /tmp/serve_snap_recover.log \
  || { echo "torn commit lost an insert or the warm start"; cat /tmp/serve_snap_recover.log; exit 1; }
stop

# Rebuild over an unloadable snapshot: the directory now holds CURRENT
# (generation 1), gen-1.idx, wal-1.log and wal-2.log. Truncate the
# committed snapshot, require the boot to rebuild from source and commit
# above every generation the directory names (3), then insert, kill -9,
# and require the next boot to warm-load generation 3 with that insert
# replayed, and nothing of the old lineage's WAL.
truncate -s 10 "$SNAP_DIR/gen-1.idx"
boot /tmp/serve_snap_rebuild.log --snapshot-dir "$SNAP_DIR"
grep -q "rebuilding from source" /tmp/serve_snap_rebuild.log \
  && grep -q "committed as snapshot generation 3" /tmp/serve_snap_rebuild.log \
  || { echo "unloadable snapshot not rebuilt above the old lineage"; cat /tmp/serve_snap_rebuild.log; exit 1; }
curl -sf -X POST "http://$ADDR/v1/index/insert" \
  --data '{"v":1,"source":"contract CiRebuilt { function h() public { msg.sender.transfer(2); } }"}' \
  -o /dev/null
crash
boot /tmp/serve_snap_rebuilt.log --snapshot-dir "$SNAP_DIR"
grep -q "warm start: generation 3 (17 docs, 1 replayed from WAL)" /tmp/serve_snap_rebuilt.log \
  || { echo "insert after a rebuild lost or old lineage replayed"; cat /tmp/serve_snap_rebuilt.log; exit 1; }
stop

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
wal_insert() { # wal_insert <body>
  curl -sf -X POST "http://$ADDR/v1/index/insert" --data "$1" -o /dev/null
}

# Reference: uninterrupted daemon, both inserts acknowledged.
boot /tmp/serve_wal_ref.log --snapshot-dir "$CI_TMP/wal-ref"
wal_insert "$WAL_X1"
curl -sf -X POST "http://$ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_ref1.json
wal_insert "$WAL_X2"
curl -sf -X POST "http://$ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_ref2.json
if cmp -s /tmp/wal_ref1.json /tmp/wal_ref2.json; then
  echo "torture probe does not distinguish the inserts"; exit 1
fi
stop

# Scenario 1: kill -9 with both acknowledged deltas only in the WAL
# (default batch fsync). The restart must replay both.
WAL_DIR=$CI_TMP/wal-kill
boot /tmp/serve_wal_kill.log --snapshot-dir "$WAL_DIR"
wal_insert "$WAL_X1"
wal_insert "$WAL_X2"
crash
boot /tmp/serve_wal_recover.log --snapshot-dir "$WAL_DIR"
grep -q "warm start: generation 1 (18 docs, 2 replayed from WAL)" /tmp/serve_wal_recover.log \
  || { echo "kill -9 lost acknowledged WAL deltas"; cat /tmp/serve_wal_recover.log; exit 1; }
curl -sf -X POST "http://$ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_got.json
cmp /tmp/wal_ref2.json /tmp/wal_got.json \
  || { echo "recovered responses diverged from the uninterrupted run"; exit 1; }
stop

# Scenario 2: kill -9 inside a fault-delayed wal/append — the second
# insert is neither acknowledged nor on disk (the delay fires before the
# write), so recovery must serve exactly the REF1 state.
WAL_DIR=$CI_TMP/wal-append
boot /tmp/serve_wal_append.log --snapshot-dir "$WAL_DIR"
stop                                          # commit generation 1 cleanly
FAULT_SPEC="wal/append:delay:1500ms" FAULT_SEED=1 \
boot /tmp/serve_wal_append2.log --snapshot-dir "$WAL_DIR"
wal_insert "$WAL_X1"                          # delayed, but acknowledged
curl -s -X POST "http://$ADDR/v1/index/insert" --data "$WAL_X2" -o /dev/null &
sleep 0.5                                     # inside X2's append delay
crash
boot /tmp/serve_wal_append3.log --snapshot-dir "$WAL_DIR"
grep -q "warm start: generation 1 (17 docs, 1 replayed from WAL)" /tmp/serve_wal_append3.log \
  || { echo "append-window crash recovered the wrong state"; cat /tmp/serve_wal_append3.log; exit 1; }
curl -sf -X POST "http://$ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_got.json
cmp /tmp/wal_ref1.json /tmp/wal_got.json \
  || { echo "append-window recovery diverged from REF1"; exit 1; }
stop

# Scenario 3: kill -9 inside a fault-delayed wal/fsync under
# --wal-fsync always. The record is in the page cache before the fsync
# starts, and kill -9 (unlike power loss) does not drop the page cache:
# both inserts must replay.
WAL_DIR=$CI_TMP/wal-fsync
boot /tmp/serve_wal_fsync.log --snapshot-dir "$WAL_DIR"
stop
FAULT_SPEC="wal/fsync:delay:1500ms" FAULT_SEED=1 \
boot /tmp/serve_wal_fsync2.log --snapshot-dir "$WAL_DIR" --wal-fsync always
wal_insert "$WAL_X1"
curl -s -X POST "http://$ADDR/v1/index/insert" --data "$WAL_X2" -o /dev/null &
sleep 0.5                                     # written, fsync still held
crash
boot /tmp/serve_wal_fsync3.log --snapshot-dir "$WAL_DIR"
grep -q "warm start: generation 1 (18 docs, 2 replayed from WAL)" /tmp/serve_wal_fsync3.log \
  || { echo "fsync-window crash lost a written record"; cat /tmp/serve_wal_fsync3.log; exit 1; }
curl -sf -X POST "http://$ADDR/v1/clone-check" --data "$WAL_PROBE" -o /tmp/wal_got.json
cmp /tmp/wal_ref2.json /tmp/wal_got.json \
  || { echo "fsync-window recovery diverged from REF2"; exit 1; }
stop

# Durability gate: group commit (batch:5, the serve default) must keep
# at least half the fsync-never insert throughput and stay above the
# floor recorded by the committed wal_durability trajectory point.
# Measures only, never appends.
./target/release/loadgen durability --no-append --requests 192 --concurrency 8
