#!/bin/sh
# Wait until each daemon socket named on the command line answers
# `icfp-sim ping`: up to 50 polls, 0.2 s apart, per socket. Run it from
# the directory that holds the icfp-sim binary (the build directory):
#
#   ../tools/ci/wait_daemon.sh svc.sock
#   ../tools/ci/wait_daemon.sh p1.sock p2.sock
#
# It never fails on its own: a daemon that does not come up is reported
# here and then caught by the caller's next submit or grep.
for sock in "$@"; do
  i=0
  until ./icfp-sim ping --socket "$sock" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "wait_daemon: $sock not answering after 50 polls" >&2
      break
    fi
    sleep 0.2
  done
done
exit 0
