#!/usr/bin/env bash
# Routing-tier smoke test with real processes: 2 partition groups, each
# a durable leader plus a WAL-shipping follower, behind a genlinkd
# -route router. Writes go through the router and land on the owning
# partitions; reads come back through the fan-out path; then SIGKILL
# one partition's leader, POST /promote on its follower and verify the
# router retargets writes to the new leader and reads stay correct.
# Run from the repository root; CI runs it on every push.
set -euo pipefail

L0_ADDR="${GENLINKD_SMOKE_L0_ADDR:-127.0.0.1:18290}"
F0_ADDR="${GENLINKD_SMOKE_F0_ADDR:-127.0.0.1:18291}"
L1_ADDR="${GENLINKD_SMOKE_L1_ADDR:-127.0.0.1:18292}"
F1_ADDR="${GENLINKD_SMOKE_F1_ADDR:-127.0.0.1:18293}"
RT_ADDR="${GENLINKD_SMOKE_RT_ADDR:-127.0.0.1:18294}"
L0="http://$L0_ADDR"; F0="http://$F0_ADDR"
L1="http://$L1_ADDR"; F1="http://$F1_ADDR"
RT="http://$RT_ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/genlinkd"
PIDS=()
L0_PID=""

cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "router_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server at $1 never became healthy"
}

# wait_applied <base> <seq>: poll until the node reports applied_seq ≥ seq.
wait_applied() {
  for _ in $(seq 1 100); do
    applied=$(curl -fsS "$1/metrics" | jq -r .applied_seq)
    if [ "$applied" -ge "$2" ]; then return 0; fi
    sleep 0.1
  done
  fail "node at $1 stuck at applied_seq $applied, want ≥ $2"
}

# A hand-built rule: lowercased names by levenshtein.
cat > "$WORK/rule.json" <<'EOF'
{
  "kind": "comparison", "function": "levenshtein", "threshold": 2,
  "children": [
    {"kind": "transform", "function": "lowerCase",
     "children": [{"kind": "property", "property": "name"}]},
    {"kind": "transform", "function": "lowerCase",
     "children": [{"kind": "property", "property": "name"}]}
  ]
}
EOF

go build -o "$BIN" ./cmd/genlinkd

echo "router_smoke: 2 partition leaders + followers up"
"$BIN" -rule "$WORK/rule.json" -addr "$L0_ADDR" -wal-dir "$WORK/p0-leader" -fsync batch &
L0_PID=$!; PIDS+=("$L0_PID")
"$BIN" -rule "$WORK/rule.json" -addr "$L1_ADDR" -wal-dir "$WORK/p1-leader" -fsync batch &
PIDS+=("$!")
wait_healthy "$L0"; wait_healthy "$L1"
"$BIN" -follow "$L0" -addr "$F0_ADDR" -wal-dir "$WORK/p0-follower" -fsync batch &
PIDS+=("$!")
"$BIN" -follow "$L1" -addr "$F1_ADDR" -wal-dir "$WORK/p1-follower" -fsync batch &
PIDS+=("$!")
wait_healthy "$F0"; wait_healthy "$F1"

echo "router_smoke: router up"
"$BIN" -route "$L0,$F0;$L1,$F1" -addr "$RT_ADDR" -max-lag 0 -hedge-after 250ms -route-poll 100ms &
PIDS+=("$!")
wait_healthy "$RT"

# Write a small corpus through the router; the split must land every
# entity on exactly one partition and the totals must add up.
curl -fsS -X POST "$RT/entities" -d '[
  {"id":"a","properties":{"name":["Grace Hopper"]}},
  {"id":"b","properties":{"name":["grace hoper"]}},
  {"id":"c","properties":{"name":["Alan Turing"]}},
  {"id":"d","properties":{"name":["Ada Lovelace"]}},
  {"id":"e","properties":{"name":["alan turing"]}},
  {"id":"f","properties":{"name":["John McCarthy"]}}
]' >/dev/null
total=$(curl -fsS "$RT/stats" | jq -r .entities)
[ "$total" = "6" ] || fail "routed corpus = $total, want 6"
p0=$(curl -fsS "$L0/stats" | jq -r .entities)
p1=$(curl -fsS "$L1/stats" | jq -r .entities)
[ "$((p0 + p1))" = "6" ] || fail "partition split $p0+$p1 != 6"
[ "$p0" -ge 1 ] && [ "$p1" -ge 1 ] || fail "degenerate split $p0/$p1"

# Fan-out top-k through the router finds the cross-checked duplicate
# regardless of which partition holds it.
match=$(curl -fsS "$RT/match?id=a&k=5" | jq -r '.links[0].id')
[ "$match" = "b" ] || fail "routed match of a = $match, want b"
match=$(curl -fsS "$RT/match?id=c&k=5" | jq -r '.links[0].id')
[ "$match" = "e" ] || fail "routed match of c = $match, want e"

# Let the followers converge so replica reads are eligible under -max-lag 0.
wait_applied "$F0" "$(curl -fsS "$L0/metrics" | jq -r .applied_seq)"
wait_applied "$F1" "$(curl -fsS "$L1/metrics" | jq -r .applied_seq)"

echo "router_smoke: kill -9 partition 0 leader, promote its follower"
kill -9 "$L0_PID"
wait "$L0_PID" 2>/dev/null || true

promoted_role=$(curl -fsS -X POST "$F0/promote" | jq -r .role)
[ "$promoted_role" = "leader" ] || fail "promote answered role $promoted_role"

# The router must retarget partition 0 writes to the promoted follower
# (via the poll loop or a 403 redirect) without a restart. Retry while
# the router notices the dead leader.
wrote=""
for _ in $(seq 1 50); do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$RT/entities" \
    -d '{"id":"g","properties":{"name":["Barbara Liskov"]}}')
  if [ "$code" = "200" ]; then wrote=yes; break; fi
  sleep 0.2
done
[ "$wrote" = "yes" ] || fail "router never recovered writes after promote"

# Reads through the router stay correct across both partitions.
total=$(curl -fsS "$RT/stats" | jq -r .entities)
[ "$total" = "7" ] || fail "post-promote routed corpus = $total, want 7"
match=$(curl -fsS "$RT/match?id=a&k=5" | jq -r '.links[0].id')
[ "$match" = "b" ] || fail "post-promote match of a = $match, want b"
got=$(curl -fsS "$RT/entities/g" | jq -r .id)
[ "$got" = "g" ] || fail "post-promote get of g answered $got"

# The router's own metrics expose the recovery.
retargets=$(curl -fsS "$RT/metrics" | jq -r .retargets)
[ "$retargets" -ge 1 ] || fail "router retargets = $retargets after kill -9 + promote, want ≥ 1"
writes=$(curl -fsS "$RT/metrics" | jq -r '.routed_writes | add')
[ "$writes" = "7" ] || fail "router routed_writes total = $writes, want 7"

echo "router_smoke: OK (split writes, fan-out reads, promote recovery, $retargets retargets)"
