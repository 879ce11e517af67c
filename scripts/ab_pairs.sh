#!/bin/sh
# Alternating A/B pairs of one benchmark workload between two revisions.
#
# Usage: scripts/ab_pairs.sh BASE HEAD WORKLOAD N
#
# Exports BASE and HEAD (any git revisions, e.g. a commit from
# `git stash create` for uncommitted work) into two directories under
# one temp directory, so the caller's tree is left untouched — the
# benchmark build rewrites `aosi_bench/Cargo.lock` there, not here.
# Builds each once, then runs N pairs of BENCHMARK.json's command at
# seed 1, 15 s, `--trace 0`, BASE first in odd pairs and HEAD first in
# even ones. Prints each run's correct/attempted/failed counts as it
# finishes (on stderr), then per end-to-end metric
# the median and quartiles (Q1–Q3) of each side, the median change,
# "better in k/N" (HEAD better than BASE in k of the N pairs, by the
# metric's `better` direction; ties counted apart) and two verdicts:
#   gain          HEAD better in at least 9 of every 10 pairs, and its
#                 median better than BASE's by more than BASE's
#                 interquartile range;
#   within bound  HEAD's median no further from BASE's in the worse
#                 direction than the metric's `bound` (a fraction).
# Needs git, cargo, awk and sed. Run it from anywhere inside the
# repository.
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 BASE HEAD WORKLOAD N" >&2
    exit 64
fi
base=$1
head=$2
workload=$3
pairs=$4

repo=$(git rev-parse --show-toplevel)
manifest="$repo/BENCHMARK.json"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

# BENCHMARK.json's command, one word per line, and its end-to-end
# metrics as "name better bound" lines.
sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' "$manifest" |
    tr ',' '\n' | sed 's/^ *"//; s/" *$//' >"$tmp/command"
awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit }
    on { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
         b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
         d = $0; sub(/.*"bound": */, "", d); sub(/[^0-9.].*/, "", d)
         print n, b, d }' "$manifest" >"$tmp/metrics"

for side in base head; do
    eval "rev=\$$side"
    mkdir "$tmp/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$tmp/$side"
    echo "building $side ($(git -C "$repo" rev-parse --short "$rev"))" >&2
    (cd "$tmp/$side" && cargo build --release --offline --quiet \
        --manifest-path aosi_bench/Cargo.toml)
done

command=$(tr '\n' ' ' <"$tmp/command")

run() { # side pair
    out="$tmp/$1.$2.out"
    # The command's words hold no spaces, so it splits as intended.
    # shellcheck disable=SC2086
    (cd "$tmp/$1" && $command --workload "$workload" --seed 1 --seconds 15 --trace 0) \
        >"$out" 2>"$out.err" || {
        echo "$1 pair $2 exited non-zero; its stderr:" >&2
        cat "$out.err" >&2
        exit 1
    }
    grep '"correct"' "$out" | sed "s/^/$1 pair $2: /; s/, \"metrics\".*/}/" >&2
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
    i=$((i + 1))
done

# One "metric pair side value" line per run and metric.
for f in "$tmp"/base.*.out "$tmp"/head.*.out; do
    side=${f##*/}
    pair=${side#*.}
    pair=${pair%.out}
    side=${side%%.*}
    awk -v w="$workload" -v p="$pair" -v s="$side" '$1 == w && NF == 4 { print $2, p, s, $3 }' "$f"
done >"$tmp/values"

echo "$workload: $pairs alternating pairs, seed 1, 15 s, --trace 0"
echo "base $(git -C "$repo" rev-parse --short "$base"), head $(git -C "$repo" rev-parse --short "$head")"
echo
echo "| metric | base median (Q1–Q3) | head median (Q1–Q3) | change | head better | gain | within bound |"
echo "|---|---|---|---|---|---|---|"
while read -r metric better bound; do
    awk -v m="$metric" -v better="$better" -v bound="$bound" '
        function quantile(v, n, q,   pos, lo) {
            pos = (n - 1) * q + 1; lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function isort(v, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        $1 == m { val[$3, $2] = $4; pairs[$2] = 1; if ($3 == "base") b[++nb] = $4; else h[++nh] = $4 }
        END {
            if (nb == 0 || nh == 0) exit
            for (p in pairs) {
                if (!(("base", p) in val) || !(("head", p) in val)) continue
                n++; d = val["head", p] - val["base", p]
                if (d == 0) ties++
                else if ((better == "lower") == (d < 0)) wins++
            }
            isort(b, nb); isort(h, nh)
            mb = quantile(b, nb, 0.5); mh = quantile(h, nh, 0.5)
            iqr = quantile(b, nb, 0.75) - quantile(b, nb, 0.25)
            change = mb == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (mh - mb) / mb)
            tie = ties ? sprintf(" (%d ties)", ties) : ""
            # How far the median moved in the better direction.
            gained = better == "lower" ? mb - mh : mh - mb
            gain = 10 * wins >= 9 * n && gained > iqr ? "yes" : "no"
            if (mb == 0) within = "n/a"
            else within = -gained <= bound * (mb < 0 ? -mb : mb) ? "yes" : "no"
            printf "| %s | %.4g (%.4g–%.4g) | %.4g (%.4g–%.4g) | %s | %d/%d%s | %s | %s |\n",
                m, mb, quantile(b, nb, 0.25), quantile(b, nb, 0.75),
                mh, quantile(h, nh, 0.25), quantile(h, nh, 0.75), change, wins, n, tie,
                gain, within
        }' "$tmp/values"
done <"$tmp/metrics"
