#!/usr/bin/env bash
# Hermetic-dependency gate (a cargo-deny stand-in that needs no cargo-deny):
# fails if any manifest in the workspace declares a dependency that is not a
# `path = ...` dependency on an in-tree crate. The workspace builds with
# `--offline` on a machine that has never populated a cargo registry cache;
# any version/git/registry dependency breaks that guarantee.
#
# Checked: every [dependencies] / [dev-dependencies] / [build-dependencies] /
# [workspace.dependencies] entry in every Cargo.toml under the repo root.
# Allowed forms:
#   foo = { path = "...", ... }
#   foo = { workspace = true, ... }   (resolved against the checked root table)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r manifest; do
    # awk state machine: remember which [section] we are in and flag
    # non-path entries inside dependency sections.
    bad=$(awk '
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/)
            # Target-specific tables like [target.*.dependencies] count too.
            if ($0 ~ /^\[target\..*dependencies\]/) in_deps = 1
            next
        }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            line = $0
            sub(/#.*$/, "", line)               # strip comments
            if (line ~ /path[[:space:]]*=/) next
            if (line ~ /workspace[[:space:]]*=[[:space:]]*true/) next
            print "  " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "check_hermetic: non-path dependency in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path "./target/*" -not -path "./.git/*")

# Belt and braces: no lockfile in the tree (the root workspace's, perf/'s) may
# reference a registry or git source.
while IFS= read -r lock; do
    if grep -q '^source = ' "$lock"; then
        echo "check_hermetic: $lock pins a non-path source:" >&2
        grep '^source = ' "$lock" | sort -u >&2
        fail=1
    fi
done < <(find . -name Cargo.lock -not -path "*/target/*" -not -path "./.git/*")

if [ "$fail" -ne 0 ]; then
    echo "check_hermetic: FAILED — the workspace must stay registry-free" >&2
    echo "(vendor the crate under crates/ and depend on it by path)" >&2
    exit 1
fi
echo "check_hermetic: ok — all dependencies are in-tree path dependencies"
