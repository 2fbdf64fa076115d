#!/usr/bin/env bash
# Count the repository's Rust lines, split into non-test and test lines.
#
# Usage:
#   scripts/loc.sh                counts at the work tree
#   scripts/loc.sh REV            also counts at REV and prints the delta
#   scripts/loc.sh REV PATH...    the same, for the files under PATHs only
#
# Rules:
#   - every *.rs file git tracks (in the work tree also new files that are
#     not ignored), outside perfbench/;
#   - a file under a tests/ or benches/ directory is all test lines;
#   - elsewhere, a file's lines from its first `#[cfg(test)]` on are test
#     lines, the rest non-test lines.
set -euo pipefail
cd "$(dirname "$0")/.."

# Read NUL-separated paths (relative to the current directory) on stdin and
# print "<non-test> <test>".
count() {
    grep -z '\.rs$' | { grep -zv '^perfbench/' || true; } | xargs -0 -r awk '
        FNR == 1 { test = (FILENAME ~ /(^|\/)(tests|benches)\//) }
        !test && index($0, "#[cfg(test)]") { test = 1 }
        { if (test) t++; else n++ }
        END { print n + 0, t + 0 }' | awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

paths=("${@:2}")
read -r here_n here_t < <(git ls-files -z -co --exclude-standard -- "${paths[@]}" | count)
echo "work tree: non-test $here_n, test $here_t"

if [ $# -ge 1 ]; then
    rev=$1
    repo=$PWD
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$rev" | tar -x -C "$tmp"
    read -r rev_n rev_t < <(cd "$tmp" && git -C "$repo" ls-tree -r -z --name-only "$rev" -- "${paths[@]}" | count)
    echo "$rev: non-test $rev_n, test $rev_t"
    printf 'delta: non-test %+d, test %+d, total %+d\n' \
        $((here_n - rev_n)) $((here_t - rev_t)) $((here_n - rev_n + here_t - rev_t))
fi
