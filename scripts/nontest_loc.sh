#!/usr/bin/env bash
# Prints the non-test library code size of every crate under crates/ (the
# offline compat facades excluded) and the total: non-blank, non-comment
# lines of crates/<crate>/src/**/*.rs, each file counted up to its first
# `#[cfg(test)]` module (`#[cfg(test)]` followed by a `mod` item, on the same
# or the next code line).  Any other `#[cfg(test)]` item (a test-only method,
# say) counts and does not end the file.  Doc comments count as comments.
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
        function is_mod(text) {
            return text ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/
        }
        FNR == 1 { in_code = 1; held = 0 }
        !in_code || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        held {
            held = 0
            if (is_mod($0)) { in_code = 0; next }
            n++
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ {
            rest = $0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", rest)
            if (rest ~ /^[[:space:]]*$/) { held = 1; next }
            if (is_mod(rest)) { in_code = 0; next }
        }
        { n++ }
        END { print n + 0 }')"
    printf '%-12s %6d\n' "$name" "$count"
    total=$((total + count))
done
printf '%-12s %6d\n' total "$total"
