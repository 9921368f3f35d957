#!/bin/sh
# job_smoke.sh — end-to-end crash-resume smoke test for the durable job
# subsystem, run by `make job-smoke` and CI. Boots a reference server
# and runs an async job through inca-client for a known-good result
# body. Then boots a journaled server (-store-dir + -job-dir) with
# per-cell chaos latency so progress is slow enough to observe, submits
# the same job, waits for at least one checkpointed cell, and SIGKILLs
# the server mid-job. A restart over the same directories must recover
# the job from the journal, finish only the remaining cells, and serve
# a result byte-identical to the reference — with the resume visible in
# the inca_jobs_resumed_total metric family. Exits nonzero on any
# mismatch.
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

# boot NAME [extra flags...]: start one server on an ephemeral port and
# wait for its boot handshake. The resolved base URL lands in $base.
boot() {
    name=$1
    shift
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
            echo "job-smoke: server $name died during boot" >&2
            cat "$tmp/$name.err" >&2
            exit 1
        }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$base" ] || { echo "job-smoke: no boot handshake from $name within 10s" >&2; exit 1; }
}

# The job: 8 cells (2 archs x 2 models x 2 phases). Job IDs are
# content-derived from the canonical spec, so the reference and the
# crashed server assign the same ID to the same sweep.
submit_job() {
    "$tmp/inca-client" -base "$1" job submit \
        -archs inca,baseline -models LeNet5,VGG16-CIFAR -phases inference,training
}
job_id() {
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1
}

# Reference run: a clean memory-only server; the job runs through
# uninterrupted and its result body is the byte-identity target.
boot ref -quiet; ref=$base
id=$(submit_job "$ref" | job_id)
[ -n "$id" ] || { echo "job-smoke: reference submit returned no job ID" >&2; exit 1; }
"$tmp/inca-client" -base "$ref" job wait "$id" >/dev/null
"$tmp/inca-client" -base "$ref" job result "$id" >"$tmp/ref.json"
[ -s "$tmp/ref.json" ] || { echo "job-smoke: empty reference result body" >&2; exit 1; }

# Crash run: journaled server with 400ms of injected latency per sweep
# cell (and the kernel budget pinned so cells run one at a time) — slow
# enough that the kill below lands mid-job with some cells checkpointed
# and some not. -chaos-prob 0 keeps the random request faults unarmed.
boot crash -store-dir "$tmp/store" -job-dir "$tmp/jobs" -kernels 1 \
    -chaos-seed 1 -chaos-prob 0 -chaos-cell-delay 400ms
crash=$base
crash_id=$(submit_job "$crash" | job_id)
[ "$crash_id" = "$id" ] || {
    echo "job-smoke: content-derived IDs differ: ref $id vs crash $crash_id" >&2
    exit 1
}

# Wait for partial progress: at least one cell checkpointed, so the
# resume has durable work to skip.
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
    echo "job-smoke: no cell checkpointed within 20s" >&2
    cat "$tmp/crash.err" >&2
    exit 1
}

# Kill the server the hard way: no drain, no goodbye, no terminal
# journal record. $done_cells cells are on disk; the rest are not.
kill -9 "$pid_crash"
wait "$pid_crash" 2>/dev/null || true

# Restart over the same directories, chaos-free: the journal replay
# must requeue the job, the checkpointed cells must come from the
# store, and the result must match the reference byte for byte.
boot resumed -store-dir "$tmp/store" -job-dir "$tmp/jobs"
resumed=$base
grep -q "job journal open" "$tmp/resumed.err" || {
    echo "job-smoke: restarted server did not report the journal" >&2
    exit 1
}
"$tmp/inca-client" -base "$resumed" job wait "$id" >"$tmp/final.json"
grep -q '"state": *"succeeded"' "$tmp/final.json" || {
    echo "job-smoke: resumed job did not succeed:" >&2
    cat "$tmp/final.json" >&2
    exit 1
}
grep -q '"resumed": *1' "$tmp/final.json" || {
    echo "job-smoke: job snapshot does not record the resume:" >&2
    cat "$tmp/final.json" >&2
    exit 1
}
"$tmp/inca-client" -base "$resumed" job result "$id" >"$tmp/resumed.json"
cmp -s "$tmp/ref.json" "$tmp/resumed.json" || {
    echo "job-smoke: resumed result differs from the uninterrupted reference" >&2
    diff "$tmp/ref.json" "$tmp/resumed.json" >&2 || true
    exit 1
}

# The resume is visible in the metrics families.
curl -fsS "$resumed/metrics?format=prometheus" >"$tmp/metrics"
grep -q '^inca_jobs_resumed_total 1$' "$tmp/metrics" || {
    echo "job-smoke: metrics lack inca_jobs_resumed_total 1" >&2
    grep '^inca_jobs' "$tmp/metrics" >&2 || true
    exit 1
}
grep -q '^inca_jobs_completed_total 1$' "$tmp/metrics" || {
    echo "job-smoke: metrics lack inca_jobs_completed_total 1" >&2
    exit 1
}

# Graceful shutdown of the survivors.
for name in ref resumed; do
    p=$(eval echo \$pid_$name)
    kill -TERM "$p"
    wait "$p" || { echo "job-smoke: server $name exited nonzero on SIGTERM" >&2; exit 1; }
done
pids=
echo "job-smoke: OK (job $id: $done_cells cells checkpointed pre-kill, resumed byte-identical)"
