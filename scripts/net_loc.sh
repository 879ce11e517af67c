#!/bin/sh
# Net non-test lines of Rust between two revisions.
#
# Usage: scripts/net_loc.sh [BASE] [HEAD]   (defaults: HEAD~1 HEAD)
#
# Counts the lines of every `.rs` file under `crates/*/src`, `src` and
# `examples` that are neither blank nor `//` comments (`///` and `//!`
# included), stopping each file at its first `#[cfg(test)]` in column
# 0. Prints both totals and HEAD minus BASE. Needs only git and awk.
set -eu

base=${1:-HEAD~1}
head=${2:-HEAD}

count() {
    git ls-tree -r --name-only "$1" |
        awk '/^(crates\/[^\/]+\/src|src|examples)\/.*\.rs$/' |
        while read -r file; do
            git show "$1:$file" | awk '
                /^#\[cfg\(test\)\]/ { exit }
                /^[ \t]*$/ { next }
                /^[ \t]*\/\// { next }
                { n++ }
                END { print n + 0 }'
        done |
        awk '{ total += $1 } END { print total + 0 }'
}

before=$(count "$base")
after=$(count "$head")
echo "$base: $before"
echo "$head: $after"
echo "delta: $((after - before))"
