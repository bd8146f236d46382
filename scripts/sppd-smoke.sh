#!/bin/sh
# sppd smoke gate: boot the simulation service on an on-disk store, submit
# the same small grid twice, and require (a) the warm repeat to be
# byte-identical to the cold compute and (b) the X-Sppd-Cache provenance to
# show the repeat was served entirely from cache — the service's two
# headline contracts, end to end over real HTTP. Then drain the server with
# SIGTERM (it must exit 0), restart it on the same directory, and require
# the third submission to come from disk, byte-identical again. The cell's
# seed-0 replay is fetched before and after the restart: the second fetch
# must come from disk, byte-identical to the computed one. Runs in seconds;
# CI runs it on every push.
set -eu
cd "$(dirname "$0")/.."

OUT="${TMPDIR:-/tmp}/sppd-smoke"
mkdir -p "$OUT"
rm -rf "$OUT/store"

go build -o "$OUT/sppd" ./cmd/sppd
SPPD_PID=
trap 'if [ -n "$SPPD_PID" ]; then kill "$SPPD_PID" 2>/dev/null || true; fi' EXIT

# start boots sppd on the store and sets SPPD_PID and ADDR. The first stdout
# line is "sppd listening on <addr>", printed after bind. Generous poll
# budget (30s): the bind itself is instant, but loaded CI machines can delay
# process start-up well past a human-scale timeout.
start() {
    : > "$OUT/banner"
    "$OUT/sppd" -addr 127.0.0.1:0 -workers 2 -dir "$OUT/store" > "$OUT/banner" &
    SPPD_PID=$!
    i=0
    while [ ! -s "$OUT/banner" ] && [ "$i" -lt 300 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    ADDR=$(sed -n 's/^sppd listening on //p' "$OUT/banner")
    if [ -z "$ADDR" ]; then
        echo "sppd did not announce a listen address" >&2
        cat "$OUT/banner" >&2
        exit 1
    fi
}

# submit POSTs the grid, writing headers to $OUT/h$1 and the body to $OUT/r$1.
GRID='{"points":[{"n":48,"r":8}],"seeds":2}'
submit() {
    curl -sS -D "$OUT/h$1" -o "$OUT/r$1" -X POST -H 'Content-Type: application/json' -d "$GRID" "http://$ADDR/v1/grids"
}

# replay GETs the grid cell's seed-0 replay into $OUT/h$1 and $OUT/r$1.
replay() {
    HASH=$(sed -n 's/.*"hash":"\([0-9a-f]\{64\}\)".*/\1/p' "$OUT/r1")
    curl -sS -f -D "$OUT/h$1" -o "$OUT/r$1" "http://$ADDR/v1/cells/$HASH/replay?seed=0"
}

# provenance fails unless response $1 carries exactly the X-Sppd-Cache value $2.
provenance() {
    if ! tr -d '\r' < "$OUT/h$1" | grep -qix "x-sppd-cache: $2"; then
        echo "FAIL: $3" >&2
        cat "$OUT/h$1" >&2
        exit 1
    fi
}

start
submit 1
submit 2
if ! cmp -s "$OUT/r1" "$OUT/r2"; then
    echo "FAIL: warm repeat is not byte-identical to the cold compute" >&2
    exit 1
fi
provenance 1 'computed=1 dedup=0 memory=0 disk=0' "cold submission provenance is not computed=1"
provenance 2 'computed=0 dedup=0 memory=1 disk=0' "warm repeat was not served from the in-memory cache"
curl -sS "http://$ADDR/v1/healthz" | grep -q '"ok": true'
replay 4
provenance 4 'computed' "first replay was not computed"

# Drain: SIGTERM must shut the server down cleanly, with exit status 0.
kill -TERM "$SPPD_PID"
status=0
wait "$SPPD_PID" || status=$?
SPPD_PID=
if [ "$status" -ne 0 ]; then
    echo "FAIL: sppd exited with status $status after SIGTERM, want 0" >&2
    exit 1
fi

# Restart on the same directory: the cell comes back from disk.
start
submit 3
if ! cmp -s "$OUT/r1" "$OUT/r3"; then
    echo "FAIL: disk-warm repeat after a restart is not byte-identical to the cold compute" >&2
    exit 1
fi
provenance 3 'computed=0 dedup=0 memory=0 disk=1' "repeat after a restart was not served from disk"
replay 5
if ! cmp -s "$OUT/r4" "$OUT/r5"; then
    echo "FAIL: disk-served replay after a restart is not byte-identical to the computed one" >&2
    exit 1
fi
provenance 5 'disk' "replay after a restart was not served from disk"

echo "sppd smoke: OK (warm repeat byte-identical from memory, clean SIGTERM drain, restart served grid and replay from disk)"
