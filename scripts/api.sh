#!/bin/sh
# Prints the workspace's public surface, one sorted line per item:
# `<file>\t<declaration>`, for every `pub fn|struct|enum|trait|const|type|
# mod|use` line before the file's first top-level `#[cfg(test)]` (the rule
# of scripts/loc.sh), over crates/*/src and src/. The output is committed
# as API.txt, and CI diffs the two, so a change of the public surface
# shows in review:
#
#     scripts/api.sh | diff - API.txt
#
# After an intended change, regenerate it with `scripts/api.sh > API.txt`.
# Run from anywhere; lists the checkout the script lives in.
set -eu
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[ \t]*pub (fn|struct|enum|trait|const|type|mod|use) / {
            sub(/^[ \t]+/, "")
            sub(/[ \t]*\{$/, "")
            print f "\t" $0
        }' "$f"
done | LC_ALL=C sort
