#!/usr/bin/env bash
# Cluster smoke test for the replicated cluster (replication factor 2):
# boot 3 durable shards (each running the peer Rebuilder) behind a router,
# run a mixed workload, and assert the failure semantics the replicated
# router promises:
#
#   failover  — kill -9 a shard mid-run: every cell still has a healthy
#               replica, so reads stay exact (200, never partial) and
#               writes KEEP flowing, acked by the surviving replica; the
#               router records failovers and fences the dead shard stale.
#   resync    — the restarted shard (same data dir) recovers its WAL, is
#               nudged by the router to resync the writes it missed, and
#               is only routed reads again once back in sync. Zero acked
#               updates lost.
#   rebuild   — kill a shard and WIPE its data dir: the restart streams
#               its cells back from peer replicas over the wire (peer
#               rebuild) and flips /readyz only once caught up. Zero
#               acked updates lost.
#   sweep     — delete one replicated point directly on its secondary
#               replica, behind the router's back (no missed ack, so the
#               write-path fence can never fire): the anti-entropy
#               checksum sweep must detect the divergence, evidenced-fence
#               the corrupted replica, and repair it back to bit-identical
#               via peer rebuild. Zero acked updates lost.
#   rebalance — hot-spot ingest overloads one cell's hosts past the drift
#               threshold; the router (restarted with -rebalance-interval)
#               automatically splits the hot cell and live-migrates the
#               moving half (placement epoch advances), commit-window 503s
#               are retried per Retry-After, per-shard drift returns under
#               the threshold, and zero acked updates are lost.
#
# Used by the ci cluster-smoke job; runs standalone with no arguments.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
BIN="$WORK/bin"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  # The processes are disowned, so poll them down instead of `wait` before
  # removing the directory they log into.
  for _ in $(seq 50); do
    local live=0
    for pid in "${PIDS[@]:-}"; do
      kill -0 "$pid" 2>/dev/null && live=1
    done
    [ "$live" = 0 ] && break
    sleep 0.1
  done
  rm -rf "$WORK" 2>/dev/null || true
}
trap cleanup EXIT

log() { echo "[cluster-smoke] $*"; }
fail() {
  log "FAIL: $*"
  for f in "$WORK"/*.log; do
    echo "--- $f"
    tail -20 "$f"
  done
  exit 1
}

HTTP_BASE=18080 # router on :18080, shard i HTTP on :1808i
WIRE_BASE=19080 # shard i wire protocol on :1908i
ROUTER="http://127.0.0.1:$HTTP_BASE"
PEERS="127.0.0.1:$((WIRE_BASE + 1)),127.0.0.1:$((WIRE_BASE + 2)),127.0.0.1:$((WIRE_BASE + 3))"

status_of() { curl -s -o /dev/null -w '%{http_code}' --max-time 10 "$@"; }

wait_http() { # url grep-pattern [timeout-seconds]
  local url="$1" pattern="$2" deadline=$(($(date +%s) + ${3:-30}))
  while true; do
    if curl -fsS --max-time 2 "$url" 2>/dev/null | grep -q "$pattern"; then
      return 0
    fi
    if [ "$(date +%s)" -ge "$deadline" ]; then
      fail "timeout waiting for $url to match '$pattern'"
    fi
    sleep 0.2
  done
}

wait_synced() { # wait until the router reports every shard healthy and in sync
  wait_http "$ROUTER/statsz" '"healthy_shards": *3'
  wait_http "$ROUTER/statsz" '"synced_shards": *3'
  wait_http "$ROUTER/statsz" '"stale_shards": *0'
}

log "building pimkd-server, pimkd-router, pimkd-load"
go build -o "$BIN/" ./cmd/pimkd-server ./cmd/pimkd-router ./cmd/pimkd-load

start_shard() { # index (1..3)
  local i="$1"
  "$BIN/pimkd-server" \
    -addr "127.0.0.1:$((HTTP_BASE + i))" \
    -shard-addr "127.0.0.1:$((WIRE_BASE + i))" \
    -cluster-self "$((i - 1))" -cluster-peers "$PEERS" \
    -rebuild-patience 2s \
    -data-dir "$WORK/shard$i" \
    -n 0 -p 16 -max-batch 64 -linger 1ms \
    >>"$WORK/shard$i.log" 2>&1 &
  PIDS+=($!)
  eval "SHARD${i}_PID=$!"
  disown # no job-control noise when the chaos phase kills it
}

log "booting 3 replicated shards (replication factor 2)"
for i in 1 2 3; do start_shard "$i"; done
for i in 1 2 3; do
  # /readyz holds 503 until the peer rebuild settles (a cold cluster boot
  # converges to empty local state after the rebuild patience window).
  wait_http "http://127.0.0.1:$((HTTP_BASE + i))/readyz" ok
done

log "booting router"
"$BIN/pimkd-router" -addr "127.0.0.1:$HTTP_BASE" \
  -shards "$PEERS" \
  -timeout 2s -probe-interval 100ms -fail-threshold 2 \
  -sweep-interval 500ms -sweep-settle 200ms \
  >"$WORK/router.log" 2>&1 &
PIDS+=($!)
ROUTER_PID=$!
disown
wait_http "$ROUTER/shardz" '"healthy": *3'
wait_synced
log "router up, 3/3 shards healthy and in sync"

ACKED="$WORK/acked.txt"
: >"$ACKED"
insert_point() { # id x y — records the id as acked (200)
  local code
  code="$(status_of -X POST "$ROUTER/insert?id=$1&p=$2,$3")"
  if [ "$code" = 200 ]; then
    echo "$1" >>"$ACKED"
    return 0
  fi
  return 1
}
grid_xy() { # id → "x y" on a 10×6 grid spanning every partition cell
  awk -v i="$1" 'BEGIN{printf "%.4f %.4f", (i%10)/10+0.05, (int(i/10)%6)/6+0.08}'
}

log "phase 1: 60 inserts through the router (healthy cluster: all must ack)"
for i in $(seq 0 59); do
  read -r x y <<<"$(grid_xy "$i")"
  insert_point "$i" "$x" "$y" || fail "insert $i refused while every shard is healthy"
done

log "phase 1: kNN read workload through the router (pimkd-load)"
"$BIN/pimkd-load" -target "$ROUTER" -mix knn=1 -k 4 -rate 60 -duration 1s >"$WORK/load1.log" 2>&1 ||
  fail "load generator against healthy cluster"

log "scenario A: killing shard 2 (kill -9) mid-run — failover, not refusal"
kill -9 "$SHARD2_PID"
wait_http "$ROUTER/shardz" '"healthy": *2'
log "router shed the dead shard (2/3 healthy)"

# Every cell shard 2 hosted has a replica on a surviving shard, so exact
# cluster-wide reads must still be served (with replication 1 these were
# refused with 503).
code="$(status_of "$ROUTER/knn?p=0.5,0.5&k=100000")"
[ "$code" = 200 ] || fail "cluster-wide kNN during single-shard outage returned $code, want 200 (failover)"
code="$(status_of "$ROUTER/range?lo=0,0&hi=1,1")"
[ "$code" = 200 ] || fail "full-box range during single-shard outage returned $code, want 200 (failover)"
log "exact reads served through replica failover"

log "scenario A: 30 inserts during the outage (all must ack via failover)"
for i in $(seq 100 129); do
  read -r x y <<<"$(grid_xy "$i")"
  insert_point "$i" "$x" "$y" || fail "insert $i refused during single-shard outage (failover write)"
done
curl -fsS "$ROUTER/statsz" | grep -q '"failovers": *[1-9]' ||
  fail "router recorded no failovers despite writes landing on dead-primary cells"
curl -fsS "$ROUTER/statsz" | grep -q '"stale_marks": *[1-9]' ||
  fail "router never fenced the dead shard stale despite it missing acked writes"
log "failover writes acked, dead shard fenced stale"

log "scenario A: restarting shard 2 from its data dir (WAL recovery + resync)"
start_shard 2
wait_http "http://127.0.0.1:$((HTTP_BASE + 2))/readyz" ok
wait_synced
curl -fsS "$ROUTER/statsz" | grep -q '"resync_nudges": *[1-9]' ||
  fail "router never nudged the revived shard to resync"
log "router reinstated and resynced the recovered shard (3/3 healthy, in sync)"

verify_acked() { # label — every acked id must be present in a full-box range
  curl -fsS "$ROUTER/range?lo=0,0&hi=1,1" >"$WORK/final.json"
  grep -o '"id": *[0-9]*' "$WORK/final.json" | grep -o '[0-9]*$' | sort -u >"$WORK/got.txt"
  sort -u "$ACKED" >"$WORK/want.txt"
  missing="$(comm -23 "$WORK/want.txt" "$WORK/got.txt")"
  [ -z "$missing" ] || fail "acked updates lost ($1): $missing"
}

log "verifying zero lost acked updates after kill/restart"
verify_acked "kill -9 + restart"

log "scenario B: killing shard 3 and WIPING its data dir — peer rebuild"
kill -9 "$SHARD3_PID"
wait_http "$ROUTER/shardz" '"healthy": *2'
log "scenario B: 20 inserts while shard 3 is down (must ack via failover)"
for i in $(seq 200 219); do
  read -r x y <<<"$(grid_xy "$i")"
  insert_point "$i" "$x" "$y" || fail "insert $i refused during shard-3 outage"
done
rm -rf "$WORK/shard3"
log "data dir wiped; restarting shard 3 with nothing but its peers"
start_shard 3
# /readyz must flip only once the peer rebuild has streamed the cells back.
wait_http "http://127.0.0.1:$((HTTP_BASE + 3))/readyz" ok
grep -q "rebuild converged" "$WORK/shard3.log" ||
  fail "restarted shard 3 never logged a converged peer rebuild"
wait_synced
log "shard 3 rebuilt from peers and rejoined in sync"

log "verifying zero lost acked updates after data-dir wipe + peer rebuild"
verify_acked "wipe + peer rebuild"

log "scenario C: silent corruption behind the router — anti-entropy sweep"
# Placement puts cell c on shards (c, c+1 mod 3): shard 1 (self 0) hosts
# cells 0,2 and shard 2 (self 1) hosts cells 1,0, so a point present on
# both lives in cell 0, whose placement-first replica is shard 1. Deleting
# it from shard 2 corrupts the MINORITY copy (an R=2 checksum tie breaks
# to the placement-first holder, so corrupting shard 1 would win the vote
# — the documented residual risk of two-way replication).
shard_ids() { # index → sorted ids the shard holds locally
  curl -fsS "http://127.0.0.1:$((HTTP_BASE + $1))/range?lo=0,0&hi=1,1" |
    grep -o '"id": *[0-9]*' | grep -o '[0-9]*$' | sort -u
}
shard_ids 1 >"$WORK/s1.ids"
shard_ids 2 >"$WORK/s2.ids"
CORRUPT_ID="$(comm -12 "$WORK/s1.ids" "$WORK/s2.ids" | head -1)"
[ -n "$CORRUPT_ID" ] || fail "no point replicated on shards 1+2 (cell 0) to corrupt"
read -r cx cy <<<"$(grid_xy "$CORRUPT_ID")"
code="$(status_of -X POST "http://127.0.0.1:$((HTTP_BASE + 2))/delete?id=$CORRUPT_ID&p=$cx,$cy")"
[ "$code" = 200 ] || fail "behind-the-router delete on shard 2 returned $code"
log "point $CORRUPT_ID deleted on shard 2 only; the router saw no missed ack — waiting for the sweep"
wait_http "$ROUTER/statsz" '"sweep_mismatches": *[1-9]' 60
log "sweep evidenced-fenced the divergent replica; waiting for peer-rebuild repair"
wait_synced
shard_ids 2 >"$WORK/s2.after"
grep -qx "$CORRUPT_ID" "$WORK/s2.after" ||
  fail "repaired shard 2 is still missing point $CORRUPT_ID (not repaired to identical)"
log "divergent replica repaired to identical (point $CORRUPT_ID restored)"

log "verifying zero lost acked updates after sweep detect + repair"
verify_acked "sweep detect + repair"

log "kNN read workload against the rebuilt cluster"
"$BIN/pimkd-load" -target "$ROUTER" -mix knn=1 -k 4 -rate 60 -duration 1s >"$WORK/load2.log" 2>&1 ||
  fail "load generator against rebuilt cluster"

log "scenario D: hot-spot ingest — automatic live cell split + point migration"
# Restart the router with the online rebalancer enabled. (A router restart
# resets the placement epoch to 1 over the boot geometry — the documented
# non-durable-layout limitation — which is fine here: no migration has
# happened yet.)
kill "$ROUTER_PID" 2>/dev/null || true
for _ in $(seq 50); do kill -0 "$ROUTER_PID" 2>/dev/null || break; sleep 0.1; done
"$BIN/pimkd-router" -addr "127.0.0.1:$HTTP_BASE" \
  -shards "$PEERS" \
  -timeout 2s -probe-interval 100ms -fail-threshold 2 \
  -sweep-interval 500ms -sweep-settle 200ms \
  -rebalance-interval 300ms -rebalance-threshold 1.25 \
  >"$WORK/router2.log" 2>&1 &
PIDS+=($!)
disown
wait_http "$ROUTER/shardz" '"healthy": *3'
wait_synced
curl -fsS "$ROUTER/shardz" | grep -q '"placement_epoch": *1' ||
  fail "fresh router not at placement epoch 1"
log "router restarted with -rebalance-interval 300ms -rebalance-threshold 1.25"

# insert_retry: a 503 during a migration commit window means "not acked,
# retry shortly" (the response carries Retry-After); an ingest client that
# retries must lose nothing.
insert_retry() { # id x y
  for _ in $(seq 40); do
    insert_point "$1" "$2" "$3" && return 0
    sleep 0.2
  done
  return 1
}
hot_xy() { # id → "x y" confined to [0.01, 0.14]^2 — one partition cell
  awk -v i="$1" 'BEGIN{printf "%.4f %.4f", 0.01+(i%25)*0.005, 0.01+(int(i/25)%25)*0.005}'
}

log "scenario D: 600 hot-spot inserts into one corner cell (ids 1000-1599)"
for i in $(seq 1000 1599); do
  read -r x y <<<"$(hot_xy "$i")"
  insert_retry "$i" "$x" "$y" || fail "hot insert $i never acked (retried through migration windows)"
done

log "scenario D: waiting for an automatic split + migration to commit"
wait_http "$ROUTER/statsz" '"rebalances": *[1-9]' 60
wait_http "$ROUTER/shardz" '"placement_epoch": *[2-9]' 30
curl -fsS "$ROUTER/statsz" | grep -q '"migrated_points": *[1-9]' ||
  fail "migration committed but moved no points"
log "split + migration committed (placement epoch advanced)"

log "scenario D: waiting for per-shard drift to settle under the threshold"
DRIFT_DEADLINE=$(($(date +%s) + 90))
while true; do
  # "drift" keys only occur in the per-shard status rows ("drift_threshold"
  # does not match); `|| true` keeps a transient no-match from tripping
  # pipefail — the deadline handles persistent ones.
  worst="$(curl -fsS "$ROUTER/shardz" |
    { grep -o '"drift": *[0-9.]*' || true; } | grep -o '[0-9.]*$' |
    awk 'BEGIN{m=0} {if ($1>m) m=$1} END{print m}')"
  if awk -v w="$worst" 'BEGIN{exit !(w > 0 && w < 1.3)}'; then
    log "worst per-shard drift ratio $worst < 1.3"
    break
  fi
  [ "$(date +%s)" -lt "$DRIFT_DEADLINE" ] || fail "drift never settled under 1.3 (worst $worst)"
  sleep 0.5
done

log "verifying zero lost acked updates after live split + migration"
verify_acked "live split + migration"
code="$(status_of "$ROUTER/knn?p=0.07,0.07&k=650")"
[ "$code" = 200 ] || fail "hot-cell kNN after migration returned $code"

log "PASS: failover served reads and writes, resync and peer rebuild converged, sweep caught and repaired silent divergence, automatic split+migration rebalanced the hot spot, zero lost acked updates"
