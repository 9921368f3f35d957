#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for cmd/inca-serve, run by
# `make serve-smoke` and CI. Boots the server on an ephemeral port, waits
# for the boot handshake, probes /healthz, evaluates one simulate cell
# twice (the second must be a byte-identical cache hit), checks /metrics
# recorded the hit, then SIGTERMs and requires a clean drained exit.
# Exits nonzero on any mismatch.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
# dash runs an INT or TERM trap and then carries on with the script;
# exit instead, and let the EXIT trap clean up.
trap 'exit 1' INT TERM

$GO build -o "$tmp/inca-serve" ./cmd/inca-serve
# A wide coalescing window so the back-to-back repeat below reliably
# joins the first request's flight even on a slow CI runner.
"$tmp/inca-serve" -addr 127.0.0.1:0 -quiet -coalesce-wait 2s >"$tmp/out" 2>"$tmp/err" &
pid=$!

# Wait for the boot handshake: the resolved listen address on stdout.
base=
i=0
while [ $i -lt 100 ]; do
    base=$(sed -n 's#^inca-serve listening on \(http://[0-9.:]*\)$#\1#p' "$tmp/out")
    [ -n "$base" ] && break
    kill -0 "$pid" 2>/dev/null || {
        echo "serve-smoke: server died during boot" >&2
        cat "$tmp/err" >&2
        exit 1
    }
    sleep 0.1
    i=$((i + 1))
done
[ -n "$base" ] || { echo "serve-smoke: no boot handshake within 10s" >&2; exit 1; }

# Liveness.
health=$(curl -fsS "$base/healthz")
[ "$health" = "ok" ] || { echo "serve-smoke: healthz said '$health'" >&2; exit 1; }

# One simulate cell, twice back to back. The analytical model is
# deterministic and the second request lands inside the coalescing
# window (on by default): it replays the first flight's recording, so
# the bodies must be byte-identical.
body='{"arch":"inca","model":"LeNet5","phase":"inference"}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/simulate" >"$tmp/a"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/simulate" >"$tmp/b"
cmp -s "$tmp/a" "$tmp/b" || { echo "serve-smoke: simulate responses differ" >&2; exit 1; }
grep -q '"arch":"INCA"' "$tmp/a" || {
    echo "serve-smoke: unexpected simulate payload:" >&2
    head -c 200 "$tmp/a" >&2
    exit 1
}

# A third request after the coalescing window expires executes for real
# and is served from the memo cache: still byte-identical.
sleep 2.5
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/simulate" >"$tmp/c"
cmp -s "$tmp/a" "$tmp/c" || { echo "serve-smoke: cached response differs" >&2; exit 1; }

# The repeats are visible in /metrics: the in-window one as a coalesced
# hit, the post-window one as a cache hit.
curl -fsS "$base/metrics" >"$tmp/metrics"
grep -q '"hits":1' "$tmp/metrics" || {
    echo "serve-smoke: cache hit not recorded in /metrics" >&2
    exit 1
}
grep -q '"coalesced_hits":1' "$tmp/metrics" || {
    echo "serve-smoke: coalesced hit not recorded in /metrics" >&2
    exit 1
}

# Graceful shutdown: SIGTERM drains and the process exits 0.
kill -TERM "$pid"
wait "$pid" || { echo "serve-smoke: nonzero exit on SIGTERM" >&2; exit 1; }
grep -q drained "$tmp/out" || { echo "serve-smoke: no drain message on stdout" >&2; exit 1; }
pid=
echo "serve-smoke: OK ($base)"
