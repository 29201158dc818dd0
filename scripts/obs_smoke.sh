#!/usr/bin/env bash
# Observability smoke: run a real fedszserver + fedszclient federation
# over TCP loopback with the metrics listener on, freeze one client so
# the straggler deadline produces a genuine fedsz_drops_total series,
# then scrape /metrics and /rounds live and assert the key series the
# acceptance criteria name: bytes-on-wire both directions, per-family
# compression ratio, per-reason drops, round commit latency, the
# process's own memory series (present, and monotonic across scrapes),
# no aggregator poisoned by a failed undo, and round spans as JSON.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
server_pid="" c0="" c1="" victim=""
cleanup() {
  kill -9 $server_pid $c0 $c1 $victim 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/fedszserver" ./cmd/fedszserver
go build -o "$tmp/fedszclient" ./cmd/fedszclient

addr=127.0.0.1:19390
maddr=127.0.0.1:19391

# A large round budget keeps the server (and its metrics listener)
# alive for the whole scrape loop; cleanup kills it once the
# assertions pass.
"$tmp/fedszserver" -addr "$addr" -metrics-addr "$maddr" \
  -min-clients 3 -rounds 1000 -deadline 2s -log-format json \
  >"$tmp/server.log" 2>&1 &
server_pid=$!

"$tmp/fedszclient" -addr "$addr" -shard 0 -shards 3 >"$tmp/c0.log" 2>&1 &
c0=$!
"$tmp/fedszclient" -addr "$addr" -shard 1 -shards 3 >"$tmp/c1.log" 2>&1 &
c1=$!
"$tmp/fedszclient" -addr "$addr" -shard 2 -shards 3 -retries 0 >"$tmp/victim.log" 2>&1 &
victim=$!
disown -a # keep bash from reporting the cleanup kills

# Wait for the first gathered round via the readiness probe (no blind
# sleeps), then freeze the third client mid-round: the 2s straggler
# deadline cuts it, producing a real drop series.
ready_deadline=$((SECONDS + 60))
until curl -sf "http://$maddr/readyz" >/dev/null; do
  if [ "$SECONDS" -ge "$ready_deadline" ]; then
    echo "obs smoke: FAIL — /readyz never flipped" >&2
    tail -n 30 "$tmp/server.log" >&2 || true
    exit 1
  fi
  sleep 0.5
done
kill -STOP "$victim" 2>/dev/null || true

need=(
  'fedsz_transport_bytes_total\{dir="rx"\} [1-9]'
  'fedsz_transport_bytes_total\{dir="tx"\} [1-9]'
  'fedsz_core_ratio_count\{family="sz2",dir="decode"\} [1-9]'
  'fedsz_drops_total\{reason="[a-z]+"\} [1-9]'
  'fedsz_round_commit_seconds_count [1-9]'
  'fedsz_rounds_committed_total [1-9]'
  'fedsz_runtime_alloc_bytes_total [1-9]'
  'fedsz_runtime_heap_live_bytes [1-9]'
  'fedsz_runtime_gc_cycles_total [1-9]'
)
missing="metrics endpoint unreachable"
deadline=$((SECONDS + 90))
while :; do
  if curl -sf "http://$maddr/metrics" -o "$tmp/metrics.txt"; then
    ok=1
    for pat in "${need[@]}"; do
      if ! grep -Eq "$pat" "$tmp/metrics.txt"; then
        ok=0 missing="$pat"
        break
      fi
    done
    [ "$ok" = 1 ] && break
  fi
  if [ "$SECONDS" -ge "$deadline" ]; then
    echo "obs smoke: FAIL — /metrics never satisfied: $missing" >&2
    echo "--- last scrape ---" >&2
    cat "$tmp/metrics.txt" 2>/dev/null >&2 || true
    echo "--- server log tail ---" >&2
    tail -n 30 "$tmp/server.log" >&2 || true
    exit 1
  fi
  sleep 1
done
echo "obs smoke: /metrics OK ($(wc -l <"$tmp/metrics.txt") lines)"

# The runtime series are sampled per scrape: a later scrape of a
# federation that is still training must read more bytes allocated and
# no fewer GC cycles.
metric() { awk -v m="$1" '$1 == m { printf "%.0f", $2 }' "$2"; }
sleep 1
curl -sf "http://$maddr/metrics" -o "$tmp/metrics2.txt"
a0=$(metric fedsz_runtime_alloc_bytes_total "$tmp/metrics.txt")
a1=$(metric fedsz_runtime_alloc_bytes_total "$tmp/metrics2.txt")
g0=$(metric fedsz_runtime_gc_cycles_total "$tmp/metrics.txt")
g1=$(metric fedsz_runtime_gc_cycles_total "$tmp/metrics2.txt")
if [ "$a1" -le "$a0" ] || [ "$g1" -lt "$g0" ]; then
  echo "obs smoke: FAIL — runtime series not monotonic: alloc $a0 -> $a1, gc cycles $g0 -> $g1" >&2
  exit 1
fi
echo "obs smoke: runtime series OK (alloc $a0 -> $a1 B, gc cycles $g0 -> $g1)"

# Whatever the frozen client had folded when the deadline cut it was
# undone by replay; no withdrawal may ever have failed to undo.
poisoned=$(metric fedsz_agg_poisoned_total "$tmp/metrics2.txt")
if [ "$poisoned" != 0 ]; then
  echo "obs smoke: FAIL — fedsz_agg_poisoned_total is '$poisoned', want 0" >&2
  exit 1
fi
echo "obs smoke: no aggregator poisoned ($(metric fedsz_agg_withdrawals_total "$tmp/metrics2.txt") withdrawals, $(metric fedsz_agg_undo_replayed_entries_total "$tmp/metrics2.txt") entries replayed)"

curl -sf "http://$maddr/rounds?n=8" -o "$tmp/rounds.json"
for frag in '"tier": "coordinator"' '"total_ns"' '"bytes_up"' '"outcome": "committed"'; do
  if ! grep -Fq "$frag" "$tmp/rounds.json"; then
    echo "obs smoke: FAIL — /rounds missing $frag" >&2
    cat "$tmp/rounds.json" >&2
    exit 1
  fi
done
echo "obs smoke: /rounds OK ($(grep -Fo '"round"' "$tmp/rounds.json" | wc -l) spans)"
echo "obs smoke: PASS"
