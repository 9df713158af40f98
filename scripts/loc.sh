#!/usr/bin/env bash
# Two line counts per crate, over every `.rs` file under the crate's src/:
#
#   non-test  the lines above each file's first `#[cfg(test)]` (the whole
#             file when it has none);
#   code      the non-blank lines among those that are not `//` comments
#             (doc comments included).
#
#   scripts/loc.sh                       # every crate under crates/
#   scripts/loc.sh crates/runtime ...    # just these crates
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*
for crate in "$@"; do
    crate="${crate%/}"
    find "$crate/src" -name '*.rs' | sort | xargs awk -v crate="$crate" '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        { non_test++ }
        /^[[:space:]]*(\/\/|$)/ { next }
        { code++ }
        END { printf "%-20s non-test %6d   code %6d\n", crate, non_test, code }
    '
done
