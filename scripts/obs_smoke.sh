#!/bin/sh
# obs_smoke.sh — end-to-end smoke test for the observability plane, run
# by `make obs-smoke` and CI. Boots a 3-shard cluster plus a tracing,
# SLO-tracked coordinator and drives the three pillars at once:
#
#  - federated trace assembly: a sharded sweep's trace, fetched from the
#    coordinator, must carry shard-side sweep/cell spans the coordinator
#    never held locally, merged with its own dispatch spans;
#  - per-request cost attribution: every sweep runs with ?cost=1 and the
#    GET /v1/usage ledger must reconcile exactly (cells and attempts)
#    with the sum of the cost blocks the callers received;
#  - burn-rate health: readiness carries the SLO verdict and /metrics
#    exports the inca_slo_* families.
#
# A second act reruns the durable-job crash drill with tracing on: a
# journaled server is SIGKILLed mid-job, and the restarted server must
# finish the job, serve its journaled cost block on ?cost=1, count it in
# the usage ledger, and show the resumed execution in the trace index.
# Exits nonzero on any mismatch.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT
# dash runs an INT or TERM trap and then carries on with the script;
# exit instead, and let the EXIT trap clean up.
trap 'exit 1' INT TERM

$GO build -o "$tmp/inca-serve" ./cmd/inca-serve
$GO build -o "$tmp/inca-client" ./cmd/inca-client

# boot NAME [extra flags...]: start one node on an ephemeral port and
# wait for its boot handshake. The resolved base URL lands in $base.
boot() {
    name=$1
    shift
    : >"$tmp/$name.out"
    : >"$tmp/$name.err"
    "$tmp/inca-serve" -addr 127.0.0.1:0 "$@" \
        >"$tmp/$name.out" 2>"$tmp/$name.err" &
    eval "pid_$name=$!"
    pids="$pids $!"
    base=
    i=0
    while [ $i -lt 100 ]; do
        base=$(sed -n 's#^inca-serve listening on \(http://[0-9.:]*\)$#\1#p' "$tmp/$name.out")
        [ -n "$base" ] && break
        kill -0 "$(eval echo \$pid_$name)" 2>/dev/null || {
            echo "obs-smoke: node $name died during boot" >&2
            cat "$tmp/$name.err" >&2
            exit 1
        }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$base" ] || { echo "obs-smoke: no boot handshake from $name within 10s" >&2; exit 1; }
}

# json_int KEY FILE: last bare "KEY":<int> value in FILE (greedy sed) —
# right for the cost block, which is spliced at the end of a response.
# The pattern anchors on the quoted key, so "cells":[...] (an array)
# never matches and "cached_cells" never aliases "cells".
json_int() {
    sed -n 's/.*"'"$1"'": *\([0-9][0-9]*\).*/\1/p' "$2" | head -n 1
}

# totals_int KEY FILE: like json_int, but scoped to the usage ledger's
# "totals" object by cutting the per-model "rows" off first.
totals_int() {
    sed 's/"rows".*//' "$2" >"$2.totals"
    json_int "$1" "$2.totals"
}

# --- Act 1: the cluster ------------------------------------------------

boot s0 -quiet -shard-id s0 -trace-ring 4096; s0=$base
boot s1 -quiet -shard-id s1 -trace-ring 4096; s1=$base
boot s2 -quiet -shard-id s2 -trace-ring 4096; s2=$base
boot coord -quiet -shard-id coord -peers "$s0,$s1,$s2" -trace-ring 8192 \
    -slo-p99 5s -slo-err 0.01
coord=$base

# Two cost-attributed sweeps through the coordinator; keep each caller's
# cost block for the ledger reconciliation below.
sweepA='{"archs":["inca","baseline"],"models":["LeNet5"],"phases":["inference","training"]}'
sweepB='{"archs":["inca","baseline"],"models":["VGG16-CIFAR"],"phases":["inference","training"]}'
curl -fsS -D "$tmp/a.hdrs" -X POST -H 'Content-Type: application/json' \
    -d "$sweepA" "$coord/v1/sweep?cost=1" >"$tmp/a.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$sweepB" "$coord/v1/sweep?cost=1" >"$tmp/b.json"
grep -q '"cost":{' "$tmp/a.json" || {
    echo "obs-smoke: sweep response carries no cost block" >&2
    exit 1
}

# Federated trace assembly: the coordinator's /v1/trace/{id} must merge
# shard-side sweep/cell spans (which only shard rings hold) with its own
# dispatch spans into one tree.
trace_id=$(awk 'tolower($1)=="x-trace-id:"{print $2}' "$tmp/a.hdrs" | tr -d '\r')
[ -n "$trace_id" ] || { echo "obs-smoke: sweep response carries no X-Trace-Id" >&2; exit 1; }
curl -fsS "$coord/v1/trace/$trace_id" >"$tmp/trace.json"
grep -q '"cluster/dispatch"' "$tmp/trace.json" || {
    echo "obs-smoke: federated trace lacks the coordinator's dispatch spans" >&2
    cat "$tmp/trace.json" >&2
    exit 1
}
grep -q '"sweep/cell"' "$tmp/trace.json" || {
    echo "obs-smoke: federated trace lacks shard-side sweep/cell spans" >&2
    cat "$tmp/trace.json" >&2
    exit 1
}
# At least one shard serves its slice of the same trace raw.
found_shard_spans=0
for s in "$s0" "$s1" "$s2"; do
    curl -fsS "$s/v1/shard/trace/$trace_id" >"$tmp/shard-trace.json"
    if grep -q '"sweep/cell"' "$tmp/shard-trace.json"; then
        found_shard_spans=1
        break
    fi
done
[ "$found_shard_spans" = 1 ] || {
    echo "obs-smoke: no shard serves sweep/cell spans of trace $trace_id" >&2
    exit 1
}
# The trace index lists the sweep's trace.
curl -fsS "$coord/v1/trace?limit=10" >"$tmp/index.json"
grep -q "\"$trace_id\"" "$tmp/index.json" || {
    echo "obs-smoke: trace index does not list $trace_id" >&2
    cat "$tmp/index.json" >&2
    exit 1
}

# Cost reconciliation: usage totals = sum of the per-request blocks.
# The ledger folds after the response writes, so give it a poll loop.
want_cells=$(( $(json_int cells "$tmp/a.json") + $(json_int cells "$tmp/b.json") ))
want_attempts=$(( $(json_int attempts "$tmp/a.json") + $(json_int attempts "$tmp/b.json") ))
[ "$want_cells" -eq 8 ] || {
    echo "obs-smoke: per-request cost blocks total $want_cells cells, want 8" >&2
    exit 1
}
got_cells=
i=0
while [ $i -lt 50 ]; do
    curl -fsS "$coord/v1/usage" >"$tmp/usage.json"
    got_cells=$(totals_int cells "$tmp/usage.json")
    [ "${got_cells:-0}" -ge "$want_cells" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ "${got_cells:-0}" -eq "$want_cells" ] || {
    echo "obs-smoke: usage ledger has $got_cells cells, callers were billed $want_cells" >&2
    cat "$tmp/usage.json" >&2
    exit 1
}
got_attempts=$(totals_int attempts "$tmp/usage.json")
[ "${got_attempts:-0}" -eq "$want_attempts" ] || {
    echo "obs-smoke: usage ledger has $got_attempts attempts, callers were billed $want_attempts" >&2
    exit 1
}
grep -q '"model":"LeNet5"' "$tmp/usage.json" || {
    echo "obs-smoke: usage rows lack the LeNet5 attribution" >&2
    cat "$tmp/usage.json" >&2
    exit 1
}

# SLO health: readiness carries the tracker's verdict, /metrics the
# burn-rate families, and clean traffic reads ok.
curl -fsS "$coord/healthz/ready" >"$tmp/ready.json"
grep -q '"slo":{' "$tmp/ready.json" || {
    echo "obs-smoke: readiness carries no SLO block: $(cat "$tmp/ready.json")" >&2
    exit 1
}
grep -q '"status":"ready"' "$tmp/ready.json" || {
    echo "obs-smoke: coordinator not ready under clean traffic: $(cat "$tmp/ready.json")" >&2
    exit 1
}
curl -fsS "$coord/metrics?format=prometheus" >"$tmp/metrics"
for fam in 'inca_slo_error_burn_rate{window="5m"}' 'inca_slo_degraded 0' \
    'inca_cost_cells_total 8' 'inca_build_info{' 'inca_trace_ring_evicted_total'; do
    grep -qF "$fam" "$tmp/metrics" || {
        echo "obs-smoke: metrics lack $fam" >&2
        grep -E '^inca_(slo|cost|build|trace)' "$tmp/metrics" >&2 || true
        exit 1
    }
done

# --- Act 2: crash-resumed job, traced and billed -----------------------

boot crash -quiet -store-dir "$tmp/store" -job-dir "$tmp/jobs" -kernels 1 \
    -trace-ring 4096 -chaos-seed 1 -chaos-prob 0 -chaos-cell-delay 400ms
crash=$base
id=$("$tmp/inca-client" -base "$crash" job submit \
    -archs inca,baseline -models LeNet5,VGG16-CIFAR -phases inference,training |
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id" ] || { echo "obs-smoke: submit returned no job ID" >&2; exit 1; }

done_cells=0
i=0
while [ $i -lt 200 ]; do
    done_cells=$("$tmp/inca-client" -base "$crash" job status "$id" |
        sed -n 's/.*"cells_done": *\([0-9]*\).*/\1/p')
    [ "${done_cells:-0}" -ge 1 ] && break
    sleep 0.1
    i=$((i + 1))
done
[ "${done_cells:-0}" -ge 1 ] || {
    echo "obs-smoke: no cell checkpointed within 20s" >&2
    cat "$tmp/crash.err" >&2
    exit 1
}
kill -9 "$pid_crash"
wait "$pid_crash" 2>/dev/null || true

boot resumed -quiet -store-dir "$tmp/store" -job-dir "$tmp/jobs" -trace-ring 4096
resumed=$base
"$tmp/inca-client" -base "$resumed" job wait "$id" >"$tmp/final.json"
grep -q '"state": *"succeeded"' "$tmp/final.json" || {
    echo "obs-smoke: resumed job did not succeed:" >&2
    cat "$tmp/final.json" >&2
    exit 1
}

# The finished job serves its journaled cost block on opt-in only.
curl -fsS "$resumed/v1/jobs/$id?cost=1" >"$tmp/job-cost.json"
grep -q '"cost":{' "$tmp/job-cost.json" || {
    echo "obs-smoke: job snapshot lacks the cost block on ?cost=1" >&2
    cat "$tmp/job-cost.json" >&2
    exit 1
}
job_cells=$(json_int cells "$tmp/job-cost.json")
[ "${job_cells:-0}" -eq 8 ] || {
    echo "obs-smoke: resumed job billed $job_cells cells, want 8" >&2
    exit 1
}
curl -fsS "$resumed/v1/jobs/$id" >"$tmp/job-plain.json"
if grep -q '"cost":{' "$tmp/job-plain.json"; then
    echo "obs-smoke: cost block leaked into the default job snapshot" >&2
    exit 1
fi

# The job execution is billed in the ledger and visible in the trace
# index as a serve/job root.
curl -fsS "$resumed/v1/usage" >"$tmp/usage2.json"
jobs_billed=$(totals_int jobs "$tmp/usage2.json")
[ "${jobs_billed:-0}" -ge 1 ] || {
    echo "obs-smoke: usage ledger billed no job execution" >&2
    cat "$tmp/usage2.json" >&2
    exit 1
}
curl -fsS "$resumed/v1/trace?limit=20" >"$tmp/index2.json"
grep -q '"serve/job"' "$tmp/index2.json" || {
    echo "obs-smoke: trace index does not show the resumed job execution" >&2
    cat "$tmp/index2.json" >&2
    exit 1
}

# Graceful shutdown of everything still alive.
for name in coord s0 s1 s2 resumed; do
    p=$(eval echo \$pid_$name)
    kill -TERM "$p"
    wait "$p" || { echo "obs-smoke: node $name exited nonzero on SIGTERM" >&2; exit 1; }
done
pids=
echo "obs-smoke: OK (federated trace $trace_id, $want_cells cells reconciled, job $id resumed and billed)"
