#!/usr/bin/env bash
# Backfill-barrier smoke test for genlinkd's bulk-load mode: start the
# server on a WAL directory, write one logged entity, stream a backfill
# load through POST /entities?backfill=1 (unlogged), SIGKILL before the
# commit and assert the restart recovers the pre-backfill state (logged
# write intact, backfill gone); then load again, POST /backfill/commit,
# SIGKILL, and assert the whole load survived the barrier. Run from the
# repository root; CI runs it on every push.
set -euo pipefail

ADDR="${GENLINKD_SMOKE_ADDR:-127.0.0.1:18098}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
WAL_DIR="$WORK/wal"
BIN="$WORK/genlinkd"
PID=""

cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "backfill_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server at $BASE never became healthy"
}

# Each boot's stderr goes to server.log, replacing the previous boot's.
start_server() {
  "$BIN" -rule "$WORK/rule.json" -addr "$ADDR" -wal-dir "$WAL_DIR" -fsync batch 2>"$WORK/server.log" &
  PID=$!
  wait_healthy
}

# Every kill in this script happens with no write in flight, so a
# restart must find no torn tail to discard.
check_clean_recovery() {
  grep -q 'torn tail discarded: false' "$WORK/server.log" ||
    fail "restart did not log a clean recovery: $(grep recovered "$WORK/server.log" || echo 'no recovery line')"
}

crash_server() {
  kill -9 "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""
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

echo "backfill_smoke: first boot"
start_server

# One logged write: its durability must survive the discarded backfill.
curl -fsS -X POST "$BASE/entities" \
  -d '{"id":"logged","properties":{"name":["Grace Hopper"]}}' >/dev/null

# An unlogged backfill load: visible immediately, durable:false, no WAL
# records beyond the logged write.
durable=$(curl -fsS -X POST "$BASE/entities?backfill=1" -d '[
  {"id":"bf1","properties":{"name":["Alan Turing"]}},
  {"id":"bf2","properties":{"name":["alan turing"]}},
  {"id":"bf3","properties":{"name":["Ada Lovelace"]}}
]' | jq -r .durable)
[ "$durable" = "false" ] || fail "backfill response durable = $durable, want false"
entities=$(curl -fsS "$BASE/stats" | jq -r .entities)
[ "$entities" = "4" ] || fail "mid-backfill corpus = $entities, want 4"
records=$(curl -fsS "$BASE/metrics" | jq -r .wal_records)
[ "$records" = "1" ] || fail "backfill leaked into the WAL: wal_records = $records, want 1"
active=$(curl -fsS "$BASE/metrics" | jq -r .backfill_active)
[ "$active" = "true" ] || fail "backfill_active = $active, want true"

echo "backfill_smoke: kill -9 before the commit barrier"
crash_server

echo "backfill_smoke: restart — must recover the pre-backfill state"
start_server
check_clean_recovery
entities=$(curl -fsS "$BASE/stats" | jq -r .entities)
[ "$entities" = "1" ] || fail "pre-barrier crash recovered $entities entities, want 1 (logged only)"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/entities/bf1")
[ "$code" = "404" ] || fail "uncommitted backfill entity bf1 answered $code, want 404"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/entities/logged")
[ "$code" = "200" ] || fail "logged entity answered $code after recovery, want 200"

# Load again and commit: the snapshot barrier makes it durable.
curl -fsS -X POST "$BASE/entities?backfill=1" -d '[
  {"id":"bf1","properties":{"name":["Alan Turing"]}},
  {"id":"bf2","properties":{"name":["alan turing"]}},
  {"id":"bf3","properties":{"name":["Ada Lovelace"]}}
]' >/dev/null
committed=$(curl -fsS -X POST "$BASE/backfill/commit" | jq -r .committed)
[ "$committed" = "3" ] || fail "commit reported $committed entities, want 3"
active=$(curl -fsS "$BASE/metrics" | jq -r .backfill_active)
[ "$active" = "false" ] || fail "backfill_active = $active after commit, want false"

echo "backfill_smoke: kill -9 after the commit barrier"
crash_server

echo "backfill_smoke: restart — must recover the whole load"
start_server
check_clean_recovery
entities=$(curl -fsS "$BASE/stats" | jq -r .entities)
[ "$entities" = "4" ] || fail "post-barrier crash recovered $entities entities, want 4"
match=$(curl -fsS "$BASE/match?id=bf1&k=5" | jq -r '.links[0].id')
[ "$match" = "bf2" ] || fail "post-barrier match of bf1 = $match, want bf2"

crash_server
echo "backfill_smoke: OK (pre-barrier crash dropped the load, post-barrier crash kept all 4 entities)"
