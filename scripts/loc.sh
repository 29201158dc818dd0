#!/usr/bin/env bash
# Non-test Go lines per package and in total — the instrument ROADMAP
# item 2 (least code for the same behaviour) is measured with. Tests,
# testdata/ and the benchmark/ module are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.*/*' |
  xargs wc -l | awk '
    $2 == "total" { next }
    { dir = $2; sub("/[^/]*$", "", dir); loc[dir] += $1; total += $1 }
    END {
      for (dir in loc) printf "%7d %s\n", loc[dir], dir | "sort -k2"
      close("sort -k2")
      printf "%7d total\n", total
    }'
