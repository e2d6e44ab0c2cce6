#!/usr/bin/env bash
# Checks that this tree's `repro all --json` artifacts are byte-identical to
# another tree's (typically a checkout of the parent commit).
#
# Builds `repro` in PARENT_TREE and in this tree, each into its own target
# directory, runs `repro all --json` at quick and `--full` scale with
# MFC_THREADS=1 and 8 on both sides, and compares every artifact against
# the parent's MFC_THREADS=1 output of the same scale.  It also runs the
# `quickstart`, `profile_cluster` and `ddos_assessment` examples on both
# sides and diffs their stdout: no `repro` artifact carries an
# `InferenceReport`'s notes, ranking or DDoS exposure, and the first two
# examples print all three; `ddos_assessment` is the only run outside the
# tests that re-runs surged epochs under a quiescence policy.  Its
# wall-clock figures ("<n> ms wall…" to the end of the line) are masked on
# both sides before the diff.  Prints one line per run and per example and
# exits non-zero on any missing, extra or differing file or output.
#
# Usage:
#   scripts/artifacts_identical.sh PARENT_TREE
#
# The target directories are new temporary ones unless PARENT_TARGET_DIR /
# CHANGE_TARGET_DIR name directories to build into (and reuse).  The
# artifacts and example outputs land in $ARTIFACTS_DIR (default: a new
# temporary directory).
set -euo pipefail

if [ "$#" -ne 1 ]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_tree="$(cd "$1" && pwd)"
change_tree="$(cd "$(dirname "$0")/.." && pwd)"
parent_target="${PARENT_TARGET_DIR:-$(mktemp -d)}"
change_target="${CHANGE_TARGET_DIR:-$(mktemp -d)}"
out="${ARTIFACTS_DIR:-$(mktemp -d)}"

examples=(quickstart profile_cluster ddos_assessment)
build() { # tree target_dir
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" -p mfc-bench --bin repro
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" -p mfc-repro "${examples[@]/#/--example=}"
}
build "$parent_tree" "$parent_target"
build "$change_tree" "$change_target"

status=0
for scale in quick full; do
    flag=()
    [ "$scale" = full ] && flag=(--full)
    for side in parent change; do
        target="$parent_target"
        [ "$side" = change ] && target="$change_target"
        for threads in 1 8; do
            dir="$out/$scale/$side-t$threads"
            rm -rf "$dir"
            mkdir -p "$dir"
            MFC_THREADS="$threads" "$target/release/repro" all "${flag[@]}" --json "$dir" \
                > "$dir.log"
        done
    done
    reference="$out/$scale/parent-t1"
    files=$(find "$reference" -type f | wc -l)
    if [ "$files" -eq 0 ]; then
        echo "$scale: the parent wrote no artifacts" >&2
        status=1
        continue
    fi
    for run in parent-t8 change-t1 change-t8; do
        if diff -rq "$reference" "$out/$scale/$run" > "$out/$scale/$run.diff"; then
            echo "$scale $run: $files/$files artifacts identical"
        else
            echo "$scale $run: DIFFERS from parent-t1" >&2
            cat "$out/$scale/$run.diff" >&2
            status=1
        fi
    done
done
mkdir -p "$out/examples"
for example in "${examples[@]}"; do
    for side in parent change; do
        target="$parent_target"
        [ "$side" = change ] && target="$change_target"
        "$target/release/examples/$example" | sed -E 's/[0-9]+ ms wall.*$//' \
            > "$out/examples/$example.$side.txt"
    done
    if diff "$out/examples/$example.parent.txt" "$out/examples/$example.change.txt" \
        > "$out/examples/$example.diff"; then
        echo "example $example: stdout identical"
    else
        echo "example $example: stdout DIFFERS" >&2
        cat "$out/examples/$example.diff" >&2
        status=1
    fi
done
echo "artifacts in $out"
exit "$status"
