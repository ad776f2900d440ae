#!/usr/bin/env bash
# Paired benchmark: the working tree against a parent revision, on one
# workload command. Run from the repository root:
#
#   scripts/benchpair.sh [-n PAIRS] [-f FILE] PARENT COMMAND [ARGS...]
#   scripts/benchpair.sh -n 10 HEAD~1 paper -trace mp3d.mtr -shards 2 -parallelism 1 -progress off -manifest-dir /tmp/m
#   scripts/benchpair.sh -f /tmp/t.mtr HEAD~1 tracegen -app MP3D -length 2000000 -o /tmp/t.mtr -progress off -manifest-dir /tmp/m
#
# COMMAND names one of the binaries under cmd/. Both sides are built into a
# fresh `mktemp -d` directory: the parent from `git archive PARENT`, so
# neither .git nor any tracked file is touched, and the change from the
# working tree as it stands, uncommitted edits included. The command runs in
# the current directory; pass -manifest-dir so its manifests do not pile up
# under results/.
#
# After one untimed warm-up run per side, it runs PAIRS (default 10)
# pairs, alternating which side goes first, and reads each run's wall
# time, CPU time (user + system) and peak RSS from the child's rusage.
# Per metric it prints both medians, the parent's interquartile range (also
# as a percentage of its median), in how many pairs the change was lower,
# and a verdict (every metric is lower-is-better):
#
#   gain        the change is lower in at least 9 of 10 pairs (90 %), and
#               its median is below the parent's by more than the parent's
#               interquartile range;
#   regression  the same rule the other way round;
#   unresolved  anything else.
#
# A metric whose parent IQR exceeds 10 % of its median gets a note below
# the table: on that host no change smaller than the spread can be shown
# on that metric, so a claim should name another one. It also says whether
# the two sides printed the same stdout. With -f FILE it hashes FILE after
# every run and also says whether both sides wrote the same bytes to it:
# for a command whose output is a file (tracegen -o), identical stdout
# proves nothing.
set -euo pipefail

pairs=10
file=
while [[ ${1:-} == -n || ${1:-} == -f ]]; do
	case $1 in
	-n) pairs=$2 ;;
	-f) file=$2 ;;
	esac
	shift 2
done
if [[ $# -lt 2 ]]; then
	sed -n '2,/^set -e/p' "$0" | sed -e '$d' -e 's/^# \{0,1\}//' >&2
	exit 2
fi
parent=$1
shift
cmd=$1
if [[ ! -d cmd/$cmd ]]; then
	echo "benchpair: no command cmd/$cmd (run from the repository root)" >&2
	exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/src" "$work/parent" "$work/change"
git archive "$parent" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/parent/" "./cmd/$cmd")
go build -o "$work/change/" "./cmd/$cmd"
echo "benchpair: $parent ($(git rev-parse --short "$parent")) against the working tree, $pairs pairs" >&2

python3 - "$work" "$pairs" "$file" "$@" <<'EOF'
import hashlib, os, subprocess, sys, time

work, pairs, file, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]


def run(side):
    """Runs the command once on side; returns (wall s, cpu s, peak RSS MB,
    stdout, SHA-256 of FILE or None)."""
    out = os.path.join(work, side + ".out")
    with open(out, "wb") as f:
        start = time.perf_counter()
        p = subprocess.Popen([os.path.join(work, side, argv[0])] + argv[1:],
                             stdout=f, stderr=subprocess.DEVNULL)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"benchpair: {side} run failed: {os.waitstatus_to_exitcode(status)}")
    with open(out, "rb") as f:
        stdout = f.read()
    digest = None
    if file:
        with open(file, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, stdout, digest


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


run("parent")
run("change")
runs = {"parent": [], "change": []}
same = same_file = True
for i in range(pairs):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    got = {side: run(side) for side in order}
    same = same and got["parent"][3] == got["change"][3]
    same_file = same_file and got["parent"][4] == got["change"][4]
    for side in order:
        runs[side].append(got[side][:3])
    print(f"pair {i + 1}/{pairs}: " + "  ".join(
        f"{side} {got[side][0]:.3f} s {got[side][1]:.3f} cpu-s {got[side][2]:.1f} MB" for side in ("parent", "change")),
        file=sys.stderr)

need = -(-9 * pairs // 10)  # 9 of 10, rounded up
print(f"command: {' '.join(argv)}")
print(f"stdout: {'identical' if same else 'DIFFERS'}")
if file:
    print(f"file {file}: {'identical' if same_file else 'DIFFERS'}")
print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'IQR %':>6} {'change median':>14} {'change/parent':>14} {'lower in':>9}  verdict")
notes = []
for m, name in enumerate(("wall_s", "cpu_s", "peak_rss_mb")):
    p = [r[m] for r in runs["parent"]]
    c = [r[m] for r in runs["change"]]
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    q1, q3 = quantile(p, 0.25), quantile(p, 0.75)
    iqr_pct = 100 * (q3 - q1) / pm
    if iqr_pct > 10:
        notes.append(f"note: {name}'s parent IQR is {iqr_pct:.1f} % of its median; "
                     f"a change under about {iqr_pct:.0f} % cannot clear it here")
    lower = sum(ci < pi for pi, ci in zip(p, c))
    higher = sum(ci > pi for pi, ci in zip(p, c))
    verdict = "unresolved"
    if lower >= need and pm - cm > q3 - q1:
        verdict = "gain"
    elif higher >= need and cm - pm > q3 - q1:
        verdict = "regression"
    print(f"{name:<12} {f'{pm:.4g} [{q1:.4g}, {q3:.4g}]':>30} {iqr_pct:>6.1f} {cm:>14.4g} {cm / pm:>14.3f} {f'{lower}/{pairs}':>9}  {verdict}")
for note in notes:
    print(note)
EOF
