#!/usr/bin/env bash
# Crash-recovery smoke test for genlinkd's -wal-dir mode: start the
# server, write entities over HTTP, SIGKILL it mid-flight (no graceful
# shutdown, no final snapshot), restart it on the same WAL directory and
# assert the acknowledged state — corpus size and a match answer —
# survived. The first boot runs at GOMAXPROCS=4, so the corpus is created
# with two shards (one per two CPUs) and a multi-shard process is killed
# even on a small runner; the restart runs at GOMAXPROCS=2, where a fresh
# index would take one shard, and must keep the two the corpus was
# created with. Run from the repository root; CI runs it on every push.
set -euo pipefail

ADDR="${GENLINKD_SMOKE_ADDR:-127.0.0.1:18099}"
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

fail() { echo "crash_smoke: FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "server at $BASE never became healthy"
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

# A rule that rule.Validate rejects is refused where it is decoded:
# genlinkd exits non-zero with Validate's message before it writes any
# durable state.
cat > "$WORK/bad_rule.json" <<'EOF'
{
  "kind": "comparison", "function": "levenshtein", "threshold": -3,
  "children": [
    {"kind": "property", "property": "name"},
    {"kind": "property", "property": "name"}
  ]
}
EOF
echo "crash_smoke: boot with an invalid rule"
# timeout turns a server that accepted the rule (and so never exits) into
# exit status 124.
status=0
timeout 30 "$BIN" -rule "$WORK/bad_rule.json" -addr "$ADDR" -wal-dir "$WAL_DIR" 2>"$WORK/bad_rule.log" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
  fail "genlinkd did not refuse a rule with threshold -3 (exit status $status)"
fi
grep -q 'rule: invalid threshold -3' "$WORK/bad_rule.log" ||
  fail "invalid rule refused without Validate's message: $(cat "$WORK/bad_rule.log")"
if compgen -G "$WAL_DIR/wal-*.seg" >/dev/null; then
  fail "invalid rule left a WAL segment in $WAL_DIR"
fi

echo "crash_smoke: first boot"
GOMAXPROCS=4 "$BIN" -rule "$WORK/rule.json" -addr "$ADDR" -wal-dir "$WAL_DIR" -fsync batch 2>"$WORK/server.log" &
PID=$!
wait_healthy

curl -fsS -X POST "$BASE/entities" -d '[
  {"id":"a","properties":{"name":["Grace Hopper"]}},
  {"id":"b","properties":{"name":["grace hoper"]}},
  {"id":"c","properties":{"name":["Alan Turing"]}},
  {"id":"d","properties":{"name":["Ada Lovelace"]}}
]' >/dev/null
curl -fsS -X DELETE "$BASE/entities/d" >/dev/null

entities=$(curl -fsS "$BASE/stats" | jq -r .entities)
[ "$entities" = "3" ] || fail "pre-crash corpus = $entities, want 3"
shards=$(curl -fsS "$BASE/stats" | jq -r .shards)
[ "$shards" = "2" ] || fail "pre-crash shards = $shards, want 2"
match=$(curl -fsS "$BASE/match?id=a&k=5" | jq -r '.links[0].id')
[ "$match" = "b" ] || fail "pre-crash match of a = $match, want b"
records=$(curl -fsS "$BASE/metrics" | jq -r .wal_records)
[ "$records" = "2" ] || fail "pre-crash wal_records = $records, want 2"

echo "crash_smoke: kill -9 $PID"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "crash_smoke: restart on the same -wal-dir at GOMAXPROCS=2"
GOMAXPROCS=2 "$BIN" -rule "$WORK/rule.json" -addr "$ADDR" -wal-dir "$WAL_DIR" -fsync batch 2>"$WORK/server.log" &
PID=$!
wait_healthy

# The kill happened with no write in flight, so the restart must find no
# torn tail to discard.
grep -q 'torn tail discarded: false' "$WORK/server.log" ||
  fail "restart did not log a clean recovery: $(grep recovered "$WORK/server.log" || echo 'no recovery line')"

entities=$(curl -fsS "$BASE/stats" | jq -r .entities)
[ "$entities" = "3" ] || fail "post-crash corpus = $entities, want 3 (a,b,c)"
shards=$(curl -fsS "$BASE/stats" | jq -r .shards)
[ "$shards" = "2" ] || fail "post-crash shards = $shards, want the corpus's 2"
match=$(curl -fsS "$BASE/match?id=a&k=5" | jq -r '.links[0].id')
[ "$match" = "b" ] || fail "post-crash match of a = $match, want b"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/entities/d")
[ "$code" = "404" ] || fail "deleted entity d answered $code after recovery, want 404"
recovery_ms=$(curl -fsS "$BASE/metrics" | jq -r .last_recovery_ms)
awk "BEGIN{exit !($recovery_ms > 0)}" || fail "last_recovery_ms = $recovery_ms, want > 0"

# The recovered server keeps taking durable writes.
curl -fsS -X POST "$BASE/entities" -d '{"id":"e","properties":{"name":["John McCarthy"]}}' >/dev/null
records=$(curl -fsS "$BASE/metrics" | jq -r .wal_records)
[ "$records" = "3" ] || fail "post-recovery wal_records = $records, want 3"

kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""
echo "crash_smoke: OK (recovered 3 entities, match answer intact, recovery ${recovery_ms}ms)"
