#!/usr/bin/env bash
# Runs the named tests under the race detector and requires that every one
# of them ran and passed. `go test -run` passes when a name matches no
# test, so a renamed or deleted test would otherwise drop out of a CI step
# unnoticed.
#
# --no-race runs them without the race detector, for tests that skip under
# it (allocation counts).
#
# usage: require-pass.sh [--no-race] "<test names, space separated>" <package>...
set -euo pipefail
race=-race
if [ "$1" = --no-race ]; then
  race=
  shift
fi
names=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test $race -v -run "^(${names// /|})\$" -count=1 "$@" | tee "$out"
for name in $names; do
  grep -q -- "^--- PASS: $name " "$out" || { echo "$name did not run and pass" >&2; exit 1; }
done
