#!/usr/bin/env bash
# Non-test Rust lines of code per workspace crate, and a total.
#
# Counts every file under crates/*/src (third_party/ and perfbench/ are
# not workspace crates and are left out). A file's count is its lines up
# to the first `#[cfg(test)]` that is directly followed by a `mod <name>`
# line: that skips in-file test modules (`mod tests`, `mod props`) but
# keeps `#[cfg(test)]` items such as a test-only enum variant, which sit
# inside non-test code. Blank and comment lines count.
#
# Usage: scripts/loc.sh        (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { count += held; held = 0; cut = 0 }
        cut { next }
        held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z_]/ {
            cut = 1; held = 0; next
        }
        held { count += held; held = 0 }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        { count++ }
        END { print count + held }
    ')
    printf '%-16s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' "total" "$total"
