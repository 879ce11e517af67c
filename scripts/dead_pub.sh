#!/bin/sh
# Public functions that nothing but their own file's tests calls.
#
# Usage: scripts/dead_pub.sh   (from anywhere inside the repository)
#
# Lists, as `file:line: name`, each `pub fn` declared in the non-test
# part of a `.rs` file under `crates/*/src` or `src` whose name is
# never referenced outside that file's `#[cfg(test)]` module: not in
# the rest of its own file, not in any other tracked `.rs` file (other
# crates, integration tests, examples, benchmarks). A file's test
# module is everything from its first `#[cfg(test)]` in column 0.
# References are whole-word matches of the name with `//` comments
# stripped, so a doc link does not keep a function alive, and a name
# declared `pub fn` in several files counts one reference per
# declaration as its own. A heuristic report, not a gate: a common
# method name (`new`, `len`) is always referenced somewhere. Needs only
# git and awk.
set -eu

cd "$(git rev-parse --show-toplevel)"

git ls-files '*.rs' | grep -v '^vendor/' | xargs awk '
    FNR == 1 {
        in_test = 0
        src = FILENAME ~ /^(crates\/[^\/]+\/src|src)\//
    }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (src && !in_test && match(line, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART + 7, RLENGTH - 7)
            declared[FILENAME SUBSEP name] = FNR
            declarations[name]++
        }
        n = split(line, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            if (words[i] == "") continue
            seen[words[i]]++
            if (in_test) in_own_tests[FILENAME SUBSEP words[i]]++
        }
    }
    END {
        for (key in declared) {
            split(key, parts, SUBSEP)
            name = parts[2]
            if (seen[name] - in_own_tests[key] - declarations[name] <= 0)
                print parts[1] ":" declared[key] ": " name
        }
    }' | sort
