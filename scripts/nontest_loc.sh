#!/usr/bin/env bash
# Prints the non-test library code size of every crate under crates/ (the
# offline compat facades excluded) and the total: non-blank, non-comment
# lines of crates/<crate>/src/**/*.rs, each file counted up to its first
# `#[cfg(test)]`.  Doc comments count as comments.
#
# Usage: scripts/nontest_loc.sh [repo-root]   (default: this script's repo)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for crate in "$root"/crates/*/; do
    name="$(basename "$crate")"
    [ "$name" = compat ] && continue
    [ -d "$crate/src" ] || continue
    count="$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_code = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_code = 0 }
        in_code && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')"
    printf '%-12s %6d\n' "$name" "$count"
    total=$((total + count))
done
printf '%-12s %6d\n' total "$total"
