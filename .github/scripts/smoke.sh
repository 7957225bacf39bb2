# Shared helpers for the CI steps that drive the real hbserved/hbfront
# binaries. Source it from the repository root:
#
#   . .github/scripts/smoke.sh
#
# class_of reads the target's host:port from $ADDR.

# wait_addr FILE...: wait up to 5 s until every -addr-file is written
# (the daemons' readiness signal).
wait_addr() {
  for _ in $(seq 1 50); do
    ready=yes
    for f in "$@"; do [ -s "$f" ] || ready=no; done
    [ "$ready" = yes ] && break
    sleep 0.1
  done
}

# class_of BODY: POST BODY to $ADDR/v1/jobs and print the response's
# X-Hbserved-Class (empty when the header is missing).
class_of() {
  curl -s -X POST "http://$ADDR/v1/jobs" -d "$1" \
    -o /dev/null -w '%{header_json}' \
    | { grep -o '"x-hbserved-class":\["[a-z-]*"\]' || true; } \
    | cut -d'"' -f4
}

# job_for N: a timing-simulated inline-source request whose cache key
# is distinct for each N.
job_for() {
  echo "{\"source\":\"func main(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }\",\"args\":[$1],\"sim\":\"timing\"}"
}

# drain PID NAME: SIGTERM a daemon and require the clean graceful-drain
# exit status, 0.
drain() {
  kill -TERM "$1"
  rc=0
  wait "$1" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: $2 drain exit $rc, want 0"; exit 1
  fi
}
