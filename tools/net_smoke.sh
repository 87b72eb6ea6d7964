#!/bin/sh
# End-to-end smoke run over a real TCP socket: start kbt_server on a free
# port, drive it with kbt_client (ping / apply / query / counterfactual /
# stats, and a query nested past the parser's bound), then SIGTERM it and
# require a clean drain. Registered as the
# `net_smoke` ctest; fails loudly on any wrong answer, bad exit code, or a
# server that does not drain within the timeout.
#
# Usage: net_smoke.sh BUILD_DIR   (expects BUILD_DIR/kbt_server, kbt_client)
set -u

BUILD_DIR="${1:?usage: net_smoke.sh BUILD_DIR}"
SERVER="$BUILD_DIR/kbt_server"
CLIENT="$BUILD_DIR/kbt_client"
WORK="$(mktemp -d)"
SERVER_LOG="$WORK/server.log"
SERVER_PID=""

fail() {
  echo "net_smoke: FAIL: $*" >&2
  echo "--- server log ---" >&2
  cat "$SERVER_LOG" >&2 || true
  [ -n "$SERVER_PID" ] && kill -KILL "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

expect() {  # expect DESCRIPTION EXPECTED_OUTPUT cmd args...
  desc="$1"; want="$2"; shift 2
  got="$("$@" 2>&1)" || fail "$desc: exit $? output: $got"
  case "$got" in
    *"$want"*) ;;
    *) fail "$desc: wanted '$want' in: $got" ;;
  esac
}

expect_error() {  # expect_error DESCRIPTION EXPECTED_OUTPUT cmd args...
  desc="$1"; want="$2"; shift 2
  got="$("$@" 2>&1)" && fail "$desc: exit 0, wanted an error; output: $got"
  case "$got" in
    *"$want"*) ;;
    *) fail "$desc: wanted '$want' in: $got" ;;
  esac
}

"$SERVER" --init "P/1 Q/2" --store "$WORK/db" --port 0 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Scrape the bound port from the "listening on HOST:PORT" line.
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVER_LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before listening"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$PORT" ] || fail "no 'listening on' line within 10s"

C="$CLIENT --port $PORT"
expect "ping"            "pong"  $C ping
expect "query v0"        "false" $C query "P(a)"
expect "apply"           "version 1" $C apply "tau{P(a)}"
expect "query v1"        "true"  $C query "P(a)"
expect "possibly"        "true"  $C possibly "P(a)"
expect "counterfactual"  "true"  $C if "P(b) => P(b) & P(a)"
expect "deadline read"   "true"  $C --deadline 60000 query "P(a)"
expect "stats"           "commits" $C stats

# A query nested 60,000 parentheses deep (about 120 KB, far below the frame
# cap) gets the parser's typed error; the server keeps answering.
PARENS="$(head -c 60000 /dev/zero | tr '\0' '(')"
CLOSES="$(head -c 60000 /dev/zero | tr '\0' ')')"
expect_error "deep query"  "parse-error" $C query "${PARENS}P(a)${CLOSES}"
expect "ping after deep" "pong"  $C ping
expect "read after deep" "true"  $C query "P(a)"

kill -TERM "$SERVER_PID"
i=0
while kill -0 "$SERVER_PID" 2>/dev/null; do
  [ $i -ge 100 ] && fail "server did not drain within 10s of SIGTERM"
  sleep 0.1
  i=$((i + 1))
done
wait "$SERVER_PID"
rc=$?
[ "$rc" -eq 0 ] || fail "server exited $rc after SIGTERM"
grep -q "drained cleanly" "$SERVER_LOG" || fail "no 'drained cleanly' line"

# The store survived the drain: a reopened server must already hold P(a).
"$SERVER" --init "P/1 Q/2" --store "$WORK/db" --port 0 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!
PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$SERVER_LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on reopen"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$PORT" ] || fail "no 'listening on' line on reopen"
expect "recovered read" "true" "$CLIENT" --port "$PORT" query "P(a)"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "reopened server exited non-zero"
rm -rf "$WORK"
echo "net_smoke: PASS"
