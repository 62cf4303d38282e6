#!/usr/bin/env bash
# Coverage ratchet: fail if total statement coverage drops more than
# ALLOWED_DROP points below the committed baseline. When coverage rises,
# print a reminder to ratchet the baseline up (scripts/coverage-baseline.txt
# holds a single number, the total percentage). Coverage is counted across
# packages (-coverpkg): the scenario renderers in internal/experiments are
# exercised by the golden tests in cmd/hl, which a per-package count cannot
# see.
set -euo pipefail

cd "$(dirname "$0")/.."
baseline_file=scripts/coverage-baseline.txt
allowed_drop=${ALLOWED_DROP:-1.0}

profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -coverprofile="$profile" -coverpkg=./... ./...

total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
baseline=$(cat "$baseline_file")

echo "coverage: total=${total}% baseline=${baseline}% allowed drop=${allowed_drop}"
awk -v t="$total" -v b="$baseline" -v d="$allowed_drop" 'BEGIN {
    if (t + d < b) {
        printf "FAIL: coverage %.1f%% dropped more than %.1f points below baseline %.1f%%\n", t, d, b
        exit 1
    }
    if (t > b + d) {
        printf "NOTE: coverage %.1f%% is above baseline %.1f%% — ratchet %s up\n", t, b, "scripts/coverage-baseline.txt"
    }
}'
