#!/usr/bin/env bash
# Heap trace of one command: which phase of a run sets its peak heap. Run
# from the repository root:
#
#   scripts/heaptrace.sh COMMAND [ARGS...]
#   scripts/heaptrace.sh paper -progress off -manifest-dir /tmp/m
#
# COMMAND names one of the binaries under cmd/; it is built from the
# working tree into a fresh `mktemp -d` directory and run under
# GODEBUG=gctrace=1 with stdout and stderr merged. Of that stream it prints
# each `## ` section header (cmd/paper's sections) and, per garbage
# collection, the live heap it left and the heap goal it set, in MB:
#
#   ## Table 2 — message counts by cache size (16-byte blocks)
#   gc 12 @1.204s live 21 MB -> goal 44 MB
#
# and last the largest goal and the section it fell in. A run's peak RSS
# follows the largest goal, so a claim about peak RSS can name the phase
# that set it. The command's own output is otherwise dropped.
set -euo pipefail

if [[ $# -lt 1 ]]; then
	sed -n '2,/^set -e/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
	exit 2
fi
cmd=$1
shift
if [[ ! -d cmd/$cmd ]]; then
	echo "heaptrace: no command cmd/$cmd (run from the repository root)" >&2
	exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/" "./cmd/$cmd"

# A gctrace line reads "gc N @Ts P%: ... ms cpu, A->B->C MB, G MB goal, ...":
# C is the live heap the collection left, G the goal it set for the next.
GODEBUG=gctrace=1 "$work/$cmd" "$@" 2>&1 | awk '
/^## / { section = substr($0, 4); print; next }
/^gc [0-9]+ @/ {
	if (!match($0, /[0-9]+->[0-9]+->[0-9]+ MB/)) next
	split(substr($0, RSTART, RLENGTH - 3), heap, "->")
	if (!match($0, /[0-9]+ MB goal/)) next
	goal = substr($0, RSTART, RLENGTH - 8) + 0
	printf "gc %s %s live %d MB -> goal %d MB\n", $2, $3, heap[3], goal
	if (goal > peak) { peak = goal; peakIn = section }
}
END {
	if (peakIn == "") peakIn = "before the first section"
	printf "peak goal %d MB, in: %s\n", peak, peakIn
}'
