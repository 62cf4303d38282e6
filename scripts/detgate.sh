#!/usr/bin/env bash
# Determinism gate: every pinned invocation that names worker flags runs once
# with 1 worker and once with 4, and what it produces must be byte-identical.
# The rows come from the scenario registry (`hl list -pins`):
#
#   name | fixed flags | worker flags (N = worker count) | compare | heavy
#
# where compare is "json" (the -metrics-json dump), "out" (stdout) or "both".
# To gate a new surface, give its registry entry a pin with Workers set.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hl" ./cmd/hl

while IFS='|' read -r name args wflags compare _; do
    read -ra cmd <<<"$name $args"
    read -ra wflags <<<"$wflags"
    read -r compare <<<"$compare"
    ((${#wflags[@]})) || continue # not determinism-gated
    for n in 1 4; do
        argv=("${cmd[@]}" "${wflags[@]//N/$n}")
        # The dump always goes to the same path so stdout cannot differ by a
        # file name; it is moved aside after the run.
        [[ $compare == out ]] || argv+=(-metrics-json "$tmp/dump.json")
        "$tmp/hl" "${argv[@]}" >"$tmp/w$n.out"
        [[ $compare == out ]] || mv "$tmp/dump.json" "$tmp/w$n.json"
    done
    [[ $compare == out ]] || cmp "$tmp/w1.json" "$tmp/w4.json"
    [[ $compare == json ]] || cmp "$tmp/w1.out" "$tmp/w4.out"
    echo "ok  hl ${cmd[*]}: workers 1 == workers 4 ($compare)"
done < <("$tmp/hl" list -pins)
