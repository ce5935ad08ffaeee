#!/bin/sh
# Prints the line counts ROADMAP aim 2 and item 22 track, by the rule of
# CHANGES.md's PR 12 line: lines of each file up to its first top-level
# `#[cfg(test)]`.
# Run from anywhere; counts the checkout the script lives in.
set -eu
cd "$(dirname "$0")/.."

non_test_lines() {
    for f in "$@"; do
        awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$f"
    done | awk '{s+=$1} END{print s+0}'
}

core=crates/core/src
echo "serving path (online/ runtime/ multistream.rs serve/): $(non_test_lines \
    $core/online/*.rs $core/runtime/*.rs $core/multistream.rs $core/serve/*.rs)"
echo "crates/core non-test: $(non_test_lines $(find $core -name '*.rs' | sort))"
echo "offline phase (offline/) non-test: $(non_test_lines $core/offline/*.rs)"
