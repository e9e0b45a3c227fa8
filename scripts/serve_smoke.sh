#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for the stonned daemon.
#
# Builds stonned, starts it on an ephemeral local port, submits the same
# job twice, asserts the second response is served from the result cache
# ("cached":true), runs the same job through the stonne CLI and asserts
# its -json run equals the daemon's first result run, then SIGTERMs the
# daemon and asserts a clean drain (exit code 0). Everything a deploy
# needs to trust: the binary starts, serves, caches, agrees with the CLI,
# and shuts down gracefully. Needs curl and jq.
set -eu

GO=${GO:-go}
ADDR=${STONNED_ADDR:-127.0.0.1:19444}
BASE="http://$ADDR"
TMP=$(mktemp -d)
PID=""
cleanup() {
    if [ -n "$PID" ]; then
        kill "$PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

JOB='{"op":"gemm","arch":"maeri","ms":32,"bw":16,"m":16,"n":16,"k":32,"seed":7}'

$GO build -o "$TMP/stonned" ./cmd/stonned
$GO build -o "$TMP/stonne" ./cmd/stonne
"$TMP/stonned" -addr "$ADDR" &
PID=$!

# Wait for the daemon to come up (healthz polls, 10s budget).
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "serve-smoke: stonned did not become healthy at $BASE" >&2
        exit 1
    fi
    sleep 0.1
done

curl -sf -X POST -d "$JOB" "$BASE/jobs" >"$TMP/cold.json"
curl -sf -X POST -d "$JOB" "$BASE/jobs" >"$TMP/warm.json"

grep -q '"cached":false' "$TMP/cold.json" || {
    echo "serve-smoke: first submission was not a cold run:" >&2
    head -c 300 "$TMP/cold.json" >&2; echo >&2
    exit 1
}
grep -q '"cached":true' "$TMP/warm.json" || {
    echo "serve-smoke: repeated submission missed the result cache:" >&2
    head -c 300 "$TMP/warm.json" >&2; echo >&2
    exit 1
}

# The cached result must be byte-identical to the cold one.
sed 's/.*"result"://' "$TMP/cold.json" >"$TMP/cold.result"
sed 's/.*"result"://' "$TMP/warm.json" >"$TMP/warm.result"
cmp -s "$TMP/cold.result" "$TMP/warm.result" || {
    echo "serve-smoke: cached result bytes differ from the cold run" >&2
    exit 1
}

# The CLI and the daemon share one job path: the same job run by the CLI
# must produce the daemon's run, field for field.
"$TMP/stonne" gemm -arch maeri -ms 32 -bw 16 -M 16 -N 16 -K 32 -seed 7 \
    -json "$TMP/cli.json" >/dev/null
jq -S '.result.runs[0]' "$TMP/cold.json" >"$TMP/daemon.run"
jq -S . "$TMP/cli.json" >"$TMP/cli.run"
cmp -s "$TMP/daemon.run" "$TMP/cli.run" || {
    echo "serve-smoke: stonne -json run differs from the daemon's:" >&2
    diff "$TMP/daemon.run" "$TMP/cli.run" | head -20 >&2
    exit 1
}

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
if wait "$PID"; then
    status=0
else
    status=$?
fi
PID="" # already reaped; keep the EXIT trap from killing a reused pid
if [ "$status" -ne 0 ]; then
    echo "serve-smoke: stonned exited $status on SIGTERM" >&2
    exit 1
fi
echo "serve-smoke: ok (cold run, cached repeat, byte-identical, CLI agrees, clean shutdown)"
