#!/usr/bin/env bash
# Checks that `repro all --json` at quick scale is a prefix of the same run
# at `--full`: quick only samples fewer sites in the §5 surveys, so
#
# * every artifact other than a survey's is byte-identical (`cmp`), and
# * in each survey artifact (fig7, fig8, fig9, table4, table5), every
#   survey's quick `outcomes` list is a non-empty prefix of the full one,
#   for the same class and stage, in the same order.
#
# Prints one line per artifact and exits non-zero on any missing file or
# mismatch.
#
# Usage:
#   scripts/quick_is_prefix.sh QUICK_DIR FULL_DIR
set -euo pipefail

if [ "$#" -ne 2 ]; then
    sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
quick="$1"
full="$2"
surveys=" fig7.json fig8.json fig9.json table4.json table5.json "

# Every survey object in an artifact, in document order, as
# {class, stage, outcomes}.
prefix_check='
    def surveys: [.. | objects | select(has("outcomes")) | {class, stage, outcomes}];
    ($q[0] | surveys) as $qs
    | ($f[0] | surveys) as $fs
    | ($qs | length) > 0
      and ($qs | length) == ($fs | length)
      and all(range($qs | length); . as $i
          | $qs[$i].class == $fs[$i].class
            and $qs[$i].stage == $fs[$i].stage
            and ($qs[$i].outcomes | length) > 0
            and $qs[$i].outcomes == $fs[$i].outcomes[0:($qs[$i].outcomes | length)])'

status=0
checked=0
for path in "$full"/*.json; do
    name="$(basename "$path")"
    [ "$name" = timing.json ] && continue
    checked=$((checked + 1))
    if [ ! -f "$quick/$name" ]; then
        echo "$name: missing from $quick" >&2
        status=1
    elif [[ "$surveys" == *" $name "* ]]; then
        if jq -en --slurpfile q "$quick/$name" --slurpfile f "$path" "$prefix_check" > /dev/null; then
            echo "$name: quick outcomes are a prefix of full"
        else
            echo "$name: quick outcomes are NOT a prefix of full" >&2
            status=1
        fi
    elif cmp -s "$quick/$name" "$path"; then
        echo "$name: identical"
    else
        echo "$name: DIFFERS between quick and full" >&2
        status=1
    fi
done
if [ "$checked" -ne 16 ]; then
    echo "expected 16 artifacts in $full, found $checked" >&2
    status=1
fi
exit "$status"
