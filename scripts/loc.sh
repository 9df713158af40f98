#!/usr/bin/env bash
# Two line counts per crate, over every `.rs` file under the crate's src/:
#
#   non-test  the lines above each file's first `#[cfg(test)]` (the whole
#             file when it has none);
#   code      the non-blank lines among those that are not `//` comments
#             (doc comments included).
#
#   scripts/loc.sh                            # every crate under crates/
#   scripts/loc.sh crates/runtime ...         # just these crates
#   scripts/loc.sh --against <rev> [crate...] # the working tree against a
#                                             # git revision, with deltas
#
# `--against` extracts `<rev>` with `git archive` into a temporary
# directory, counts the same crates there, and prints both counts and the
# difference (negative: this tree is shorter).
set -euo pipefail
cd "$(dirname "$0")/.."

against=""
if [ "${1-}" = "--against" ]; then
    [ $# -ge 2 ] || { echo "usage: $0 --against <rev> [crate ...]" >&2; exit 2; }
    against="$2"
    shift 2
fi
[ $# -gt 0 ] || set -- crates/*

# Prints "<non-test> <code>" for the crate at `$2`, relative to root `$1`
# ("0 0" when the crate does not exist there).
count() {
    local src="$1/${2%/}/src"
    [ -d "$src" ] || { echo "0 0"; return; }
    find "$src" -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        { non_test++ }
        /^[[:space:]]*(\/\/|$)/ { next }
        { code++ }
        END { printf "%d %d\n", non_test, code }
    '
}

if [ -z "$against" ]; then
    for crate in "$@"; do
        read -r non_test code < <(count . "$crate")
        printf "%-20s non-test %6d   code %6d\n" "${crate%/}" "$non_test" "$code"
    done
    exit 0
fi

old="$(mktemp -d)"
trap 'rm -rf "$old"' EXIT
git archive "$against" | tar -x -C "$old"
printf "%-20s %-26s %s\n" "against $against" "non-test (old -> new)" "code (old -> new)"
total=(0 0 0 0)
for crate in "$@"; do
    read -r old_non_test old_code < <(count "$old" "$crate")
    read -r non_test code < <(count . "$crate")
    printf "%-20s %6d -> %6d %+6d   %6d -> %6d %+6d\n" "${crate%/}" \
        "$old_non_test" "$non_test" $((non_test - old_non_test)) \
        "$old_code" "$code" $((code - old_code))
    total=($((total[0] + old_non_test)) $((total[1] + non_test)) \
        $((total[2] + old_code)) $((total[3] + code)))
done
printf "%-20s %6d -> %6d %+6d   %6d -> %6d %+6d\n" "total" \
    "${total[0]}" "${total[1]}" $((total[1] - total[0])) \
    "${total[2]}" "${total[3]}" $((total[3] - total[2]))
