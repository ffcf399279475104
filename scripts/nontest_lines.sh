#!/usr/bin/env bash
# Non-test line count per crate and in total: every line of
# crates/*/src/**/*.rs up to the file's first column-0 `#[cfg(test)]`
# (where its unit-test module starts).  This is the count ROADMAP.md
# item 6 tracks; integration tests (crates/*/tests) never count.
# Usage: scripts/nontest_lines.sh [ROOT]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for src in crates/*/src; do
  count=$(find "$src" -name '*.rs' -exec awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }')
  printf '%-10s %6d\n' "$(basename "$(dirname "$src")")" "$count"
  total=$((total + count))
done
printf '%-10s %6d\n' total "$total"
