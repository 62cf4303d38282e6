#!/usr/bin/env bash
# Determinism gate: every row of the table runs once with 1 worker and once
# with 4, and what it produces must be byte-identical. A row is
#
#   name | binary and fixed flags | worker flags (N = worker count) | compare
#
# where compare is "json" (the -metrics-json dump), "out" (stdout) or "both".
# To gate a new surface, add a row.
set -euo pipefail

cd "$(dirname "$0")/.."
gates=(
    "micro         | hlmicro -quick               | -parallel N                    | json"
    "pscaling      | hlshard -exp pscaling -quick | -engine-workers N              | json"
    "serving       | hlload                       | -engine-workers N              | json"
    "serving-naive | hlload -quick                | -engine-workers N              | out"
    "qos           | hlqos                        | -engine-workers N              | json"
    "restore       | hlrestore                    | -engine-workers N -parallel N  | both"
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/bin/" ./cmd/...

for gate in "${gates[@]}"; do
    IFS='|' read -r name cmd wflags compare <<<"$gate"
    name=${name// /} compare=${compare// /}
    for n in 1 4; do
        read -ra argv <<<"$cmd ${wflags//N/$n}"
        # The dump always goes to the same path so stdout cannot differ by a
        # file name; it is moved aside after the run.
        [[ $compare == out ]] || argv+=(-metrics-json "$tmp/$name.json")
        "$tmp/bin/${argv[0]}" "${argv[@]:1}" >"$tmp/$name.w$n.out"
        [[ $compare == out ]] || mv "$tmp/$name.json" "$tmp/$name.w$n.json"
    done
    [[ $compare == out ]] || cmp "$tmp/$name.w1.json" "$tmp/$name.w4.json"
    [[ $compare == json ]] || cmp "$tmp/$name.w1.out" "$tmp/$name.w4.out"
    echo "ok  $name: workers 1 == workers 4 ($compare)"
done
