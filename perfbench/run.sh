#!/usr/bin/env bash
# Builds the benchmark and the cmd/paper, cmd/tracegen and cmd/cohd binaries
# it drives, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-eval --seed 0 --seconds 25 --trace 0
#
# Everything built or written goes under $CARGO_TARGET_DIR (default
# .bench_build), including the Go build cache, so a run touches nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Go telemetry is on ("local") by default and makes the go command start a
# detached child process that outlives the build. The mode file under the
# private XDG_CONFIG_HOME turns it off, so the benchmark leaves no process
# behind, even when the build fails.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/paper ./cmd/tracegen ./cmd/cohd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out" "$@"
