#!/usr/bin/env sh
# Counts non-test lines of Rust source: for each `.rs` file, the lines
# before its first `#[cfg(test)]` (the whole file if it has none).
#
# Counted: src/, examples/ and crates/*/{src,examples}, without the perf
# benchmark package (crates/bench/src/bin/perf/). Prints one total per
# crate (the root package and each workspace crate), then the whole
# total.
#
# Usage: scripts/nontest-lines.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

count() {
    # Non-test lines of every `.rs` file under the given directories.
    find "$@" -name '*.rs' -not -path 'crates/bench/src/bin/perf/*' 2>/dev/null |
        sort |
        xargs -r awk '
            FNR == 1 { counting = 1 }
            /#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }
        ' |
        awk '{ n += $1 } END { print n + 0 }'
}

total=0
report() {
    n=$(count "$@")
    total=$((total + n))
    printf '%8d  %s\n' "$n" "$*"
}

report src examples   # the root package, `charfree`
for dir in crates/*/; do
    set -- "${dir}src"
    [ -d "${dir}examples" ] && set -- "$@" "${dir}examples"
    report "$@"
done
printf '%8d  total\n' "$total"
