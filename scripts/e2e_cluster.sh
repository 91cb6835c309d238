#!/usr/bin/env bash
# End-to-end deployment check: build cmd/dkgnode, launch a real 4-node
# TCP cluster on localhost in `serve` mode with 2 concurrent DKG
# sessions each, and gate on every node printing the same public key
# per session (and different keys across sessions). Every node runs the
# one shipped profile (P-256, Ed25519, wire format v2). On clean
# shutdown every node must report its cumulative bytes-on-wire books,
# including per-session byte counters.
#
# Phase 2 exercises durable restart recovery: a 4-node cluster with
# --state-dir in which node 1 (the initial leader) is SIGKILLed while
# the DKG is provably mid-protocol, then restarted from its state
# directory — the DKG must still complete on every node, including the
# restarted one.
#
# Runs locally (./scripts/e2e_cluster.sh) and as the CI e2e job.
set -euo pipefail

N=4
T=1
SESSIONS=2
TIMEOUT="${E2E_TIMEOUT:-120s}"
BASE_PORT="${E2E_BASE_PORT:-9461}"

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building dkgnode"
go build -o "$workdir/dkgnode" ./cmd/dkgnode

echo "== generating key directory"
"$workdir/dkgnode" keygen -n "$N" -out "$workdir/keys.json" >/dev/null

peers=""
for i in $(seq 1 "$N"); do
  peers+="${peers:+,}$i=127.0.0.1:$((BASE_PORT + i))"
done

echo "== launching $N nodes ($SESSIONS sessions each, peers $peers)"
for i in $(seq 1 "$N"); do
  "$workdir/dkgnode" serve \
    -id "$i" -listen "127.0.0.1:$((BASE_PORT + i))" \
    -peers "$peers" -keys "$workdir/keys.json" \
    -n "$N" -t "$T" -sessions "$SESSIONS" -timeout "$TIMEOUT" \
    >"$workdir/node$i.out" 2>"$workdir/node$i.err" </dev/null &
  pids+=($!)
done

status=0
for idx in "${!pids[@]}"; do
  if ! wait "${pids[$idx]}"; then
    echo "!! node $((idx + 1)) exited non-zero" >&2
    status=1
  fi
done
pids=()
if [ "$status" -ne 0 ]; then
  tail -n +1 "$workdir"/node*.err >&2 || true
  exit "$status"
fi

echo "== validating session keys"
for s in $(seq 1 "$SESSIONS"); do
  keys=$(
    for i in $(seq 1 "$N"); do
      python3 -c '
import json, sys
session = int(sys.argv[2])
for line in open(sys.argv[1]):
    doc = json.loads(line)
    if doc["session"] == session:
        print(doc["publicKey"])
' "$workdir/node$i.out" "$s"
    done
  )
  count=$(printf '%s\n' "$keys" | wc -l)
  uniq_count=$(printf '%s\n' "$keys" | sort -u | wc -l)
  if [ "$count" -ne "$N" ] || [ "$uniq_count" -ne 1 ]; then
    echo "!! session $s: expected $N matching keys, got $count keys ($uniq_count distinct)" >&2
    tail -n +1 "$workdir"/node*.out >&2 || true
    exit 1
  fi
  echo "   session $s: $N/$N nodes agree on $(printf '%s\n' "$keys" | head -1 | cut -c1-16)…"
done

cross=$(
  for s in $(seq 1 "$SESSIONS"); do
    python3 -c '
import json, sys
session = int(sys.argv[2])
for line in open(sys.argv[1]):
    doc = json.loads(line)
    if doc["session"] == session:
        print(doc["publicKey"])
        break
' "$workdir/node1.out" "$s"
  done | sort -u | wc -l
)
if [ "$cross" -ne "$SESSIONS" ]; then
  echo "!! sessions produced identical keys ($cross distinct of $SESSIONS)" >&2
  exit 1
fi

echo "== validating wire-stats dump (per-session byte counters on clean shutdown)"
for i in $(seq 1 "$N"); do
  if ! grep -Eq "node $i: wire: [0-9]+ frames, [0-9]+ bytes sent" "$workdir/node$i.err"; then
    echo "!! node $i reported no cumulative wire stats" >&2
    cat "$workdir/node$i.err" >&2
    exit 1
  fi
  for s in $(seq 1 "$SESSIONS"); do
    if ! grep -Eq "node $i: wire: +session $s: [0-9]+ frames [0-9]+ bytes" "$workdir/node$i.err"; then
      echo "!! node $i reported no byte counter for session $s" >&2
      cat "$workdir/node$i.err" >&2
      exit 1
    fi
  done
done

echo "== e2e cluster OK: $SESSIONS concurrent sessions, one key per session"

# ---------------------------------------------------------------------
# Phase 2: kill one node mid-DKG and restart it from --state-dir.
#
# Choreography that makes "mid-protocol" deterministic rather than a
# timing race: launch only nodes 1 and 2 first. Two nodes are below
# the VSS echo threshold (ceil((n+t+1)/2) = 3), so no session can
# complete — whenever the kill lands, node 1 dies mid-dealing with a
# populated WAL. Then nodes 3 and 4 join, node 1 restarts from its
# state directory, resumes both sessions via snapshot+WAL replay plus
# the protocol's help machinery, and the whole cluster must finish.
RESTART_PORT=$((BASE_PORT + 10))
rpeers=""
for i in $(seq 1 "$N"); do
  rpeers+="${rpeers:+,}$i=127.0.0.1:$((RESTART_PORT + i))"
done

rlaunch() {
  local i=$1 tag=$2
  "$workdir/dkgnode" serve \
    -id "$i" -listen "127.0.0.1:$((RESTART_PORT + i))" \
    -peers "$rpeers" -keys "$workdir/keys.json" \
    -n "$N" -t "$T" -sessions "$SESSIONS" -timeout "$TIMEOUT" \
    -state-dir "$workdir/state$i" -snapshot-every 8 \
    >"$workdir/restart-node$i.$tag.out" 2>"$workdir/restart-node$i.$tag.err" </dev/null &
  rpids[$i]=$!
}

echo "== restart phase: launching nodes 1+2 (below echo threshold: guaranteed stuck mid-protocol)"
declare -a rpids
rlaunch 1 a
rlaunch 2 a
pids+=("${rpids[1]}" "${rpids[2]}")
sleep 2

echo "== SIGKILL node 1 mid-DKG"
kill -9 "${rpids[1]}" 2>/dev/null || { echo "!! node 1 exited before the kill (unexpected)" >&2; exit 1; }
wait "${rpids[1]}" 2>/dev/null || true
if [ ! -s "$workdir/state1/sess-1.wal" ]; then
  echo "!! node 1 left no WAL behind" >&2
  exit 1
fi

echo "== launching nodes 3+4 and restarting node 1 from its state directory"
rlaunch 3 a
rlaunch 4 a
sleep 0.3
rlaunch 1 b
pids+=("${rpids[1]}" "${rpids[3]}" "${rpids[4]}")

status=0
for i in 1 2 3 4; do
  if ! wait "${rpids[$i]}"; then
    echo "!! restart phase: node $i exited non-zero" >&2
    status=1
  fi
done
pids=()
if [ "$status" -ne 0 ]; then
  tail -n +1 "$workdir"/restart-node*.err >&2 || true
  exit "$status"
fi

if ! grep -q "restored" "$workdir/restart-node1.b.err"; then
  echo "!! restarted node did not restore from its state directory" >&2
  cat "$workdir/restart-node1.b.err" >&2
  exit 1
fi

echo "== validating restart-phase session keys"
for s in $(seq 1 "$SESSIONS"); do
  keys=$(
    for i in $(seq 1 "$N"); do
      cat "$workdir/restart-node$i".*.out 2>/dev/null | python3 -c '
import json, sys
session = int(sys.argv[1])
for line in sys.stdin:
    doc = json.loads(line)
    if doc["session"] == session:
        print(doc["publicKey"])
        break
' "$s"
    done
  )
  count=$(printf '%s\n' "$keys" | wc -l)
  uniq_count=$(printf '%s\n' "$keys" | sort -u | wc -l)
  if [ "$count" -ne "$N" ] || [ "$uniq_count" -ne 1 ]; then
    echo "!! restart session $s: expected $N matching keys, got $count keys ($uniq_count distinct)" >&2
    tail -n +1 "$workdir"/restart-node*.out >&2 || true
    exit 1
  fi
  echo "   restart session $s: $N/$N nodes agree on $(printf '%s\n' "$keys" | head -1 | cut -c1-16)…"
done

echo "== e2e restart OK: node 1 SIGKILLed mid-DKG, restarted from --state-dir, cluster completed"

# ---------------------------------------------------------------------
# Phase 3: threshold data plane. A 4-node cluster generates one key and
# keeps serving it (-client-listen implies linger); an external client
# — holding no key material — connects to node 1's client endpoint,
# requests a signature, an encrypt/decrypt round-trip and 3 beacon
# rounds, and verifies every result it can check publicly. The client
# binary fails non-zero on any verification miss, so the gate here is
# its exit status plus the per-operation JSON lines. A beacon round is a
# threshold coin on the key, so the same rounds opened through node 3
# must return the same outputs. Six more clients
# then round-trip six fresh ciphertexts at once, so node 1 combines
# decryptions from several peers' partials in one batch. Forty more clients
# then sign forty distinct messages, eight at a time: signing is FROST,
# each signer bringing its own nonce pair, so no session may complete
# meanwhile, and every signature is checked. Node 2 is then SIGKILLed
# and eight more messages are signed through node 1, whose attempts
# that waited on node 2 must be retried with other signers; with node 2
# still down, rounds 1-5 opened through node 1 and through node 3 must
# agree, rounds 1-3 with the outputs from before the kill. The other
# nodes then get SIGTERM and must shut down cleanly (exit 0).
DP_PORT=$((BASE_PORT + 20))
dpeers=""
for i in $(seq 1 "$N"); do
  dpeers+="${dpeers:+,}$i=127.0.0.1:$((DP_PORT + i))"
done

METRICS_ADDR="127.0.0.1:$((DP_PORT + 30))"
echo "== data-plane phase: launching $N serving nodes (client protocol on 127.0.0.1:$((DP_PORT + 10 + 1)).., node 1 metrics on $METRICS_ADDR)"
declare -a dpids
for i in $(seq 1 "$N"); do
  extra=()
  if [ "$i" -eq 1 ]; then
    # Node 1 carries the observability surface: the live introspection
    # endpoint (scraped mid-run below) and the machine-readable wire
    # books (validated after clean shutdown).
    extra+=(-metrics-listen "$METRICS_ADDR" -wire-stats-json "$workdir/dp-node1-wire.json")
  fi
  "$workdir/dkgnode" serve \
    -id "$i" -listen "127.0.0.1:$((DP_PORT + i))" \
    -peers "$dpeers" -keys "$workdir/keys.json" \
    -n "$N" -t "$T" -sessions 1 -timeout "$TIMEOUT" \
    -client-listen "127.0.0.1:$((DP_PORT + 10 + i))" \
    "${extra[@]}" \
    >"$workdir/dp-node$i.out" 2>"$workdir/dp-node$i.err" </dev/null &
  dpids[$i]=$!
  pids+=("${dpids[$i]}")
done

echo "== waiting for key 1 to reach every node"
for i in $(seq 1 "$N"); do
  for _ in $(seq 1 100); do
    grep -q '"publicKey"' "$workdir/dp-node$i.out" 2>/dev/null && break
    sleep 0.2
  done
  if ! grep -q '"publicKey"' "$workdir/dp-node$i.out" 2>/dev/null; then
    echo "!! data-plane phase: node $i never completed the DKG" >&2
    tail -n +1 "$workdir"/dp-node*.err >&2 || true
    exit 1
  fi
done

echo "== external client: sign + decrypt + 3 beacon rounds against node 1"
if ! "$workdir/dkgnode" client \
    -addr "127.0.0.1:$((DP_PORT + 10 + 1))" -key 1 \
    -sign "e2e data plane message" -decrypt -beacon 3 \
    >"$workdir/dp-client.out" 2>"$workdir/dp-client.err"; then
  echo "!! data-plane client failed" >&2
  cat "$workdir/dp-client.err" >&2
  tail -n +1 "$workdir"/dp-node*.err >&2 || true
  exit 1
fi
for op in sign decrypt beacon; do
  case "$op" in
    sign)    want='"op":"sign".*"verified":true'; count=1 ;;
    decrypt) want='"op":"decrypt".*"roundTrip":true'; count=1 ;;
    beacon)  want='"op":"beacon".*"verified":true'; count=3 ;;
  esac
  got=$(grep -Ec "$want" "$workdir/dp-client.out" || true)
  if [ "$got" -ne "$count" ]; then
    echo "!! data-plane client: expected $count verified $op result(s), got $got" >&2
    cat "$workdir/dp-client.out" >&2
    exit 1
  fi
done
if ! grep -q "$(grep -o '"publicKey":"[^"]*"' "$workdir/dp-node1.out" | head -1)" "$workdir/dp-client.out"; then
  echo "!! data-plane client reported a different public key than the cluster" >&2
  exit 1
fi
# beacon_outputs prints a client run's beacon outputs, in round order.
beacon_outputs() {
  grep -o '"output":"[0-9a-f]*"' "$1" | tr '\n' ' '
}

# beacon_via runs a client that opens beacon rounds 1..ROUNDS through
# node NODE's client endpoint, writing its JSON lines to OUT.
beacon_via() {
  local node=$1 rounds=$2 out=$3
  if ! "$workdir/dkgnode" client \
      -addr "127.0.0.1:$((DP_PORT + 10 + node))" -key 1 -beacon "$rounds" \
      >"$out" 2>"$out.err"; then
    echo "!! beacon client through node $node failed" >&2
    cat "$out.err" >&2
    tail -n +1 "$workdir"/dp-node*.err >&2 || true
    exit 1
  fi
}

echo "== external client: the same 3 beacon rounds through node 3"
beacon_via 3 3 "$workdir/dp-beacon-node3.out"
want_beacon=$(beacon_outputs "$workdir/dp-client.out")
if [ "$(beacon_outputs "$workdir/dp-beacon-node3.out")" != "$want_beacon" ]; then
  echo "!! beacon outputs differ between aggregators node 1 and node 3" >&2
  cat "$workdir/dp-client.out" "$workdir/dp-beacon-node3.out" >&2
  exit 1
fi

# The client's handshake names the cluster's group: the one the rig
# measures.
if ! grep '"op":"keyinfo"' "$workdir/dp-client.out" | grep -q '"group":"p256"'; then
  echo "!! data-plane client: keyinfo does not report group p256" >&2
  cat "$workdir/dp-client.out" >&2
  exit 1
fi

DECRYPT_CLIENTS=6
echo "== external clients: $DECRYPT_CLIENTS encrypt/decrypt round-trips at once"
declare -a dcpids=()
for j in $(seq 1 "$DECRYPT_CLIENTS"); do
  "$workdir/dkgnode" client \
    -addr "127.0.0.1:$((DP_PORT + 10 + 1))" -key 1 -decrypt \
    >"$workdir/dp-decrypt-$j.out" 2>"$workdir/dp-decrypt-$j.err" &
  dcpids+=($!)
done
for p in "${dcpids[@]}"; do
  if ! wait "$p"; then
    echo "!! data-plane decrypt client failed" >&2
    cat "$workdir"/dp-decrypt-*.err >&2
    tail -n +1 "$workdir"/dp-node*.err >&2 || true
    exit 1
  fi
done
got=$(cat "$workdir"/dp-decrypt-*.out | grep -Ec '"op":"decrypt".*"roundTrip":true' || true)
if [ "$got" -ne "$DECRYPT_CLIENTS" ]; then
  echo "!! expected $DECRYPT_CLIENTS decrypt round-trips, got $got" >&2
  exit 1
fi

# completed_sessions counts the sessions node 1's /sessions reports
# completed.
completed_sessions() {
  curl -fsS "http://$METRICS_ADDR/sessions" | python3 -c '
import json, sys
print(sum(1 for s in json.load(sys.stdin) if s["state"] == "completed"))
'
}

# sign_wave signs messages FIRST..LAST through node 1 at once, each
# client in the background, and fails on any client error.
sign_wave() {
  local first=$1 last=$2 k p
  local -a wpids=()
  for k in $(seq "$first" "$last"); do
    "$workdir/dkgnode" client \
      -addr "127.0.0.1:$((DP_PORT + 10 + 1))" -key 1 \
      -sign "e2e signed message $k" \
      >"$workdir/dp-sign-$k.out" 2>"$workdir/dp-sign-$k.err" &
    wpids+=($!)
  done
  for p in "${wpids[@]}"; do
    if ! wait "$p"; then
      echo "!! data-plane sign client failed (messages $first-$last)" >&2
      cat "$workdir"/dp-sign-*.err >&2
      tail -n +1 "$workdir"/dp-node*.err >&2 || true
      exit 1
    fi
  done
}

# check_signed asserts that messages 1..COUNT each have one verified
# signature and that no two signatures coincide.
check_signed() {
  local count=$1 got
  got=$(cat "$workdir"/dp-sign-*.out | grep -Ec '"op":"sign".*"verified":true' || true)
  if [ "$got" -ne "$count" ]; then
    echo "!! expected $count verified signatures, got $got" >&2
    exit 1
  fi
  if [ "$(cat "$workdir"/dp-sign-*.out | grep -o '"sigma":"[^"]*"' | sort -u | wc -l)" -ne "$count" ]; then
    echo "!! signatures on distinct messages are not distinct" >&2
    exit 1
  fi
}

SIGN_WAVES=5
SIGN_WIDTH=8
echo "== external clients: $((SIGN_WAVES * SIGN_WIDTH)) distinct messages, $SIGN_WIDTH at a time"
sessions_before=$(completed_sessions)
for wave in $(seq 1 "$SIGN_WAVES"); do
  sign_wave $(((wave - 1) * SIGN_WIDTH + 1)) $((wave * SIGN_WIDTH))
done
check_signed $((SIGN_WAVES * SIGN_WIDTH))
# Signing runs no DKG: the nonces are the signers' own.
sessions_after=$(completed_sessions)
if [ "$sessions_after" -ne "$sessions_before" ]; then
  echo "!! signing completed sessions: $sessions_before before, $sessions_after after" >&2
  exit 1
fi

echo "== scraping node 1 introspection endpoint mid-run"
curl -fsS "http://$METRICS_ADDR/metrics" >"$workdir/dp-metrics.txt"
# Core series from every subsystem must exist and be nonzero after one
# completed DKG plus real client traffic.
for series in \
    engine_sessions_completed_total \
    vss_completions_total \
    transport_frames_total \
    dataplane_requests_total \
    dataplane_batches_total; do
  if ! awk -v s="$series" '$1 == s && $2 + 0 > 0 { found = 1 } END { exit !found }' "$workdir/dp-metrics.txt"; then
    echo "!! /metrics: series $series missing or zero" >&2
    cat "$workdir/dp-metrics.txt" >&2
    exit 1
  fi
done
# Every node is honest: no partial may have been judged bad.
if ! awk '$1 == "dataplane_evicted_total" { found = 1; bad = ($2 + 0 != 0) } END { exit !found || bad }' "$workdir/dp-metrics.txt"; then
  echo "!! /metrics: dataplane_evicted_total missing or non-zero on an honest cluster" >&2
  grep '^dataplane_' "$workdir/dp-metrics.txt" >&2 || true
  exit 1
fi
curl -fsS "http://$METRICS_ADDR/sessions" | python3 -c '
import json, sys
ss = json.load(sys.stdin)
assert any(s["state"] == "completed" for s in ss), ss
'
# No frame that reached this node ahead of its session's registration
# may have waited out the early-frame expiry: that is a stranded dealing.
if ! awk '$1 == "transport_early_expired_total" { found = 1; bad = ($2 + 0 != 0) } END { exit !found || bad }' "$workdir/dp-metrics.txt"; then
  echo "!! /metrics: transport_early_expired_total missing or non-zero" >&2
  grep '^transport_early_' "$workdir/dp-metrics.txt" >&2 || true
  exit 1
fi
curl -fsS "http://$METRICS_ADDR/keys" | python3 -c '
import json, sys
ks = json.load(sys.stdin)
assert any(k["state"] == "serving" and k["requests_total"] > 0 for k in ks), ks
# Each signature brought back the commitments it spent.
assert any(k["commitments"] > 0 for k in ks), ks
'

"$workdir/dkgnode" top -addr "$METRICS_ADDR" >"$workdir/dp-top.out"
grep -q "completed" "$workdir/dp-top.out" || {
  echo "!! dkgnode top did not show a completed session" >&2
  cat "$workdir/dp-top.out" >&2
  exit 1
}
echo "   /metrics, /sessions, /keys and dkgnode top all OK"

DOWN=2
echo "== SIGKILL node $DOWN, then $SIGN_WIDTH more signatures through node 1"
kill -KILL "${dpids[$DOWN]}"
wait "${dpids[$DOWN]}" 2>/dev/null || true
signed=$((SIGN_WAVES * SIGN_WIDTH))
sign_wave $((signed + 1)) $((signed + SIGN_WIDTH))
check_signed $((signed + SIGN_WIDTH))
# Node 1 held commitments from node $DOWN, so some attempt waited on it
# and was retried with the signers still up.
curl -fsS "http://$METRICS_ADDR/metrics" >"$workdir/dp-metrics-down.txt"
if ! awk '$1 == "dataplane_sign_attempts_total" { found = 1; ok = ($2 + 0 > 0) } END { exit !(found && ok) }' "$workdir/dp-metrics-down.txt"; then
  echo "!! /metrics: dataplane_sign_attempts_total missing or zero with node $DOWN down" >&2
  grep '^dataplane_' "$workdir/dp-metrics-down.txt" >&2 || true
  exit 1
fi
echo "   $SIGN_WIDTH signatures verified with node $DOWN down"

echo "== beacon rounds 1-5 through nodes 1 and 3 with node $DOWN down"
beacon_via 1 5 "$workdir/dp-beacon-down-node1.out"
beacon_via 3 5 "$workdir/dp-beacon-down-node3.out"
down1=$(beacon_outputs "$workdir/dp-beacon-down-node1.out")
if [ "$down1" != "$(beacon_outputs "$workdir/dp-beacon-down-node3.out")" ]; then
  echo "!! with node $DOWN down, nodes 1 and 3 disagree on beacon rounds 1-5" >&2
  cat "$workdir/dp-beacon-down-node1.out" "$workdir/dp-beacon-down-node3.out" >&2
  exit 1
fi
case "$down1" in
  "$want_beacon"*) ;;
  *)
    echo "!! beacon rounds 1-3 changed after node $DOWN was killed" >&2
    echo "   before: $want_beacon" >&2
    echo "   after:  $down1" >&2
    exit 1
    ;;
esac

echo "== SIGTERM: serving nodes must shut down cleanly"
for i in $(seq 1 "$N"); do
  [ "$i" -eq "$DOWN" ] && continue
  kill -TERM "${dpids[$i]}" 2>/dev/null || true
done
status=0
for i in $(seq 1 "$N"); do
  [ "$i" -eq "$DOWN" ] && continue
  if ! wait "${dpids[$i]}"; then
    echo "!! data-plane phase: node $i exited non-zero after SIGTERM" >&2
    status=1
  fi
done
pids=()
if [ "$status" -ne 0 ]; then
  tail -n +1 "$workdir"/dp-node*.err >&2 || true
  exit "$status"
fi

echo "== validating wire-stats JSON dump"
python3 -c '
import json, sys
ws = json.load(open(sys.argv[1]))
assert ws["Frames"] > 0 and ws["FrameBytes"] > 0, ws
' "$workdir/dp-node1-wire.json"
# The stderr text dump must survive alongside the JSON twin.
grep -Eq "node 1: wire: [0-9]+ frames, [0-9]+ bytes sent" "$workdir/dp-node1.err" || {
  echo "!! node 1 stderr wire dump missing alongside -wire-stats-json" >&2
  exit 1
}

echo "== e2e data plane OK: external clients verified sign/beacon (same outputs via nodes 1 and 3, before and after the kill), $((DECRYPT_CLIENTS + 1)) decryptions and $((SIGN_WAVES * SIGN_WIDTH + SIGN_WIDTH)) FROST signatures, $SIGN_WIDTH of them with node $DOWN down"
