#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test for the sharded sweep
# cluster, run by `make cluster-smoke` and CI. Boots three shard nodes,
# a coordinator scatter/gathering across them, and a plain single-node
# reference. Asserts: the coordinator's sweep CSV, and the cells of its
# JSON sweep, are byte-identical to the reference node's; after SIGKILLing one shard the next sweep still
# completes byte-identical (lost cells rehash onto survivors) and the
# coordinator's readiness degrades without going unready; and the
# coalescing counter family is exported. Exits nonzero on any mismatch.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/inca-serve" ./cmd/inca-serve

# boot NAME [extra flags...]: start one node on an ephemeral port and
# wait for its boot handshake. The resolved base URL lands in $base.
boot() {
    name=$1
    shift
    "$tmp/inca-serve" -addr 127.0.0.1:0 -quiet "$@" \
        >"$tmp/$name.out" 2>"$tmp/$name.err" &
    eval "pid_$name=$!"
    pids="$pids $!"
    base=
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's#^inca-serve listening on \(http://[0-9.:]*\)$#\1#p' "$tmp/$name.out")
        [ -n "$base" ] && break
        kill -0 "$(eval echo \$pid_$name)" 2>/dev/null || {
            echo "cluster-smoke: node $name died during boot" >&2
            cat "$tmp/$name.err" >&2
            exit 1
        }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$base" ] || { echo "cluster-smoke: no boot handshake from $name within 10s" >&2; exit 1; }
}

boot s0 -shard-id s0; s0=$base
boot s1 -shard-id s1; s1=$base
boot s2 -shard-id s2; s2=$base
boot coord -shard-id coord -peers "$s0,$s1,$s2"; coord=$base
boot ref; ref=$base

# All shards up: the coordinator reports ready.
ready=$(curl -fsS "$coord/healthz/ready")
echo "$ready" | grep -q '"status":"ready"' || {
    echo "cluster-smoke: coordinator not ready with all shards up: $ready" >&2
    exit 1
}

# Sweep A: the scatter/gather result must be byte-identical to the
# single-node run — same cells, same order, same formatting.
sweepA='{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference","training"]}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweepA" \
    "$coord/v1/sweep?format=csv" >"$tmp/a-coord.csv"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweepA" \
    "$ref/v1/sweep?format=csv" >"$tmp/a-ref.csv"
cmp -s "$tmp/a-coord.csv" "$tmp/a-ref.csv" || {
    echo "cluster-smoke: sweep A differs between coordinator and single node" >&2
    diff "$tmp/a-ref.csv" "$tmp/a-coord.csv" >&2 || true
    exit 1
}
[ "$(wc -l <"$tmp/a-coord.csv")" -eq 5 ] || {
    echo "cluster-smoke: sweep A returned $(wc -l <"$tmp/a-coord.csv") lines, want header + 4 cells" >&2
    exit 1
}

# The CSV rounds utilization to 4 places; the JSON rows carry every
# figure at full precision, so compare sweep A's "cells" array too. The
# rest of the body (cache stats, shard summary) legitimately differs.
cells_of() {
    sed -n 's/^{"cells":\(\[.*\]\),"cached":.*$/\1/p' "$1"
}
for node in coord ref; do
    eval "url=\$$node"
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweepA" \
        "$url/v1/sweep" >"$tmp/a-$node.json"
    cells_of "$tmp/a-$node.json" >"$tmp/a-$node.cells"
done
[ -s "$tmp/a-ref.cells" ] || {
    echo "cluster-smoke: no cells array in the reference's sweep A JSON" >&2
    exit 1
}
cmp -s "$tmp/a-coord.cells" "$tmp/a-ref.cells" || {
    echo "cluster-smoke: sweep A JSON cells differ between coordinator and single node" >&2
    diff "$tmp/a-ref.cells" "$tmp/a-coord.cells" >&2 || true
    exit 1
}

# Kill one shard the hard way (no drain, no goodbye) and sweep again
# with fresh cells: the lost shard's partition rehashes onto the
# survivors and the merged result still matches the single node byte
# for byte.
kill -9 "$pid_s2"
wait "$pid_s2" 2>/dev/null || true
sweepB='{"archs":["inca","baseline"],"models":["VGG16-CIFAR"],"phases":["inference","training"]}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweepB" \
    "$coord/v1/sweep?format=csv" >"$tmp/b-coord.csv"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweepB" \
    "$ref/v1/sweep?format=csv" >"$tmp/b-ref.csv"
cmp -s "$tmp/b-coord.csv" "$tmp/b-ref.csv" || {
    echo "cluster-smoke: sweep B (one shard lost) differs from single node" >&2
    diff "$tmp/b-ref.csv" "$tmp/b-coord.csv" >&2 || true
    exit 1
}

# Minority loss degrades readiness without flipping it: still 200, the
# dead peer visible in the body.
ready=$(curl -fsS "$coord/healthz/ready")
echo "$ready" | grep -q '"status":"degraded"' || {
    echo "cluster-smoke: readiness after shard loss: $ready (want degraded)" >&2
    exit 1
}
echo "$ready" | grep -q '"up":false' || {
    echo "cluster-smoke: dead shard not reported down: $ready" >&2
    exit 1
}

# The shard summary on a JSON sweep records the loss.
curl -fsS -X POST -H 'Content-Type: application/json' -d "$sweepB" \
    "$coord/v1/sweep" >"$tmp/b-coord.json"
grep -q '"down":1' "$tmp/b-coord.json" || {
    echo "cluster-smoke: shard summary does not report the dead peer" >&2
    exit 1
}

# The coalescing counter family is exported on every node.
curl -fsS "$coord/metrics?format=prometheus" >"$tmp/metrics"
grep -q '^inca_serve_coalesced_total ' "$tmp/metrics" || {
    echo "cluster-smoke: coordinator metrics lack inca_serve_coalesced_total" >&2
    exit 1
}

# Graceful shutdown of everything still alive.
for name in coord s0 s1 ref; do
    p=$(eval echo \$pid_$name)
    kill -TERM "$p"
    wait "$p" || { echo "cluster-smoke: node $name exited nonzero on SIGTERM" >&2; exit 1; }
done
pids=
echo "cluster-smoke: OK (coordinator $coord over 3 shards, 1 killed)"
