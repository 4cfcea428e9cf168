# Daemon lifecycle for the CI smoke steps. Source it from the directory
# that holds the icfp-sim binary (the build directory); it must be
# sourced, because only the step's own shell can `wait` on the daemons it
# started in the background:
#
#   . ../tools/ci/daemon.sh
#   start_daemon SERVE serve.log svc.sock --jobs 4   # sets SERVE_PID
#   ./icfp-sim submit --socket svc.sock ...
#   stop_daemon SERVE serve.log
#
# An environment assignment in front of start_daemon reaches the daemon
# (ICFP_FAULT_INJECT=point start_daemon ...).

# start_daemon NAME LOG SOCKET [SERVE-OPTIONS...]: start `icfp-sim serve
# --socket SOCKET SERVE-OPTIONS` in the background with its stderr in
# LOG, keep its PID in ${NAME}_PID, and wait until SOCKET answers ping.
start_daemon() {
  local name=$1 log=$2 sock=$3
  shift 3
  ./icfp-sim serve --socket "$sock" "$@" 2> "$log" &
  eval "${name}_PID=\$!"
  ../tools/ci/wait_daemon.sh "$sock"
}

# stop_daemon NAME LOG [any-exit]: SIGTERM the daemon in ${NAME}_PID and
# wait for it to exit, print LOG, and check that it drained cleanly. With
# any-exit, a non-zero exit status does not fail the step.
stop_daemon() {
  local pid
  eval "pid=\$${1}_PID"
  kill -TERM "$pid"
  if [ "$3" = any-exit ]; then
    wait "$pid" || true
  else
    wait "$pid"
  fi
  cat "$2"
  grep -q "drained cleanly" "$2"
}

# tcp_addr LOG: the HOST:PORT a `serve --listen-tcp` daemon logged to LOG.
tcp_addr() {
  grep -o 'listening on tcp [^ ]*' "$1" | awk '{print $4}'
}
