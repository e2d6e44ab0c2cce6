#!/usr/bin/env bash
# Compares two perfbench builds on one workload by alternating pairs of runs
# and summarizes every end-to-end metric that BENCHMARK.json lists: each
# side's median and quartiles, the relative change of the medians, and how
# many pairs the change wins (by the metric's own "better" direction).  It
# also prints each side's failed-run count.  Pair i runs seed FIRST_SEED + i
# on both sides; the side that runs first alternates from pair to pair.
# With TRACE = 1 the runs are traced and the per-layer metrics are
# summarized too.
#
# Usage:
#   scripts/perfbench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS FIRST_SEED PAIRS [TRACE]
#
# The binaries are built perfbench executables: in each tree,
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
# then <target dir>/release/mfc-perfbench.  Quartiles interpolate linearly
# between order statistics.  Each run's full output is kept in
# $PERFBENCH_PAIRS_DIR (default: a new temporary directory).  Needs jq.
set -euo pipefail

if [ "$#" -lt 6 ] || [ "$#" -gt 7 ]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent="$1" change="$2" workload="$3" seconds="$4" first_seed="$5" pairs="$6"
trace="${7:-0}"
bench="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
dir="${PERFBENCH_PAIRS_DIR:-$(mktemp -d)}"
mkdir -p "$dir"
: > "$dir/parent.jsonl"
: > "$dir/change.jsonl"

run() { # side binary seed
    local out="$dir/$1-seed$3.txt"
    "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace" > "$out"
    tail -n 1 "$out" >> "$dir/$1.jsonl"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

metrics="(.end_to_end)"
[ "$trace" = 1 ] && metrics="(.end_to_end + .per_layer)"
echo "$workload, --seconds $seconds --trace $trace, seeds $first_seed-$((first_seed + pairs - 1)), $pairs pairs"
jq -nr --slurpfile parent "$dir/parent.jsonl" --slurpfile change "$dir/change.jsonl" \
    --slurpfile bench "$bench" '
    def quantile($q): sort as $s | ((($s | length) - 1) * $q) as $h | ($h | floor) as $lo
        | $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
    def stats: [quantile(0.5), quantile(0.25), quantile(0.75)];
    ($bench[0] | '"$metrics"'[] | . as $m
        | [$parent[] | .metrics[$m.name].value] as $p
        | [$change[] | .metrics[$m.name].value] as $c
        | select(($p + $c) | all(. != null))
        | [range(0; $p | length)
            | select(if $m.better == "lower" then $c[.] < $p[.] else $c[.] > $p[.] end)]
        | [$m.name] + ($p | stats) + ($c | stats) + [length, ($p | length)]),
    ["failed", ([$parent[].failed] | add), ([$change[].failed] | add)]
    | @tsv' | awk -F'\t' '
    function num(x) { return (x >= 1e5) ? sprintf("%.0f", x) : sprintf("%.5g", x) }
    function cell(m, lo, hi) { return num(m) " [" num(lo) ", " num(hi) "]" }
    BEGIN {
        printf "%-30s %-32s %-32s %8s  %s\n", "metric", "parent median [q1, q3]",
            "change median [q1, q3]", "delta", "change better"
    }
    $1 == "failed" { printf "failed runs: parent %d, change %d\n", $2, $3; next }
    {
        delta = ($2 == 0) ? "n/a" : sprintf("%+.1f%%", ($5 - $2) / $2 * 100)
        printf "%-30s %-32s %-32s %8s  %d/%d\n", $1, cell($2, $3, $4), cell($5, $6, $7),
            delta, $8, $9
    }'
echo "runs kept in $dir"
