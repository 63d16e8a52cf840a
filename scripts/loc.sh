#!/usr/bin/env bash
# The line-count ruler every simplicity PR is measured with: lines of
# `.rs` and `.sh` files under crates/, src/ and scripts/, outside
# tests/ and benches/ directories, each `.rs` file counted up to (not
# including) its first `#[cfg(test)]`. Prints one line per crate and
# the total; given file paths, counts those files, one line each.
#
#   ./scripts/loc.sh
#   ./scripts/loc.sh crates/service/src/ledger.rs crates/service/src/store.rs
set -euo pipefail
cd "$(dirname "$0")/.."

by=file
if [ "$#" -eq 0 ]; then
  by=crate
  # shellcheck disable=SC2046 # No path in the tree holds whitespace.
  set -- $(find crates src scripts -type f \( -name '*.rs' -o -name '*.sh' \) \
    -not -path '*/tests/*' -not -path '*/benches/*' | sort)
fi

awk -v by="${by}" '
  FNR == 1 { counting = 1 }
  FILENAME ~ /\.rs$/ && /#\[cfg\(test\)\]/ { counting = 0 }
  counting {
    split(FILENAME, part, "/")
    group = part[1] == "crates" ? part[1] "/" part[2] : part[1]
    lines[by == "file" ? FILENAME : group]++
    total++
  }
  END {
    for (g in lines) printf "%7d  %s\n", lines[g], g | "sort -k2"
    close("sort -k2")
    printf "%7d  total\n", total
  }
' "$@"
