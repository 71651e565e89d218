#!/usr/bin/env sh
# Compare two wn-bench-record-v1 files on one metric.
#
# Usage: scripts/bench_compare.sh BASELINE.json CANDIDATE.json \
#            [THRESHOLD_PCT] [KEY] [DIRECTION]
#
# KEY defaults to untraced_min_ms (the executor record); DIRECTION is
# `lower` (default — smaller is better, e.g. milliseconds) or `higher`
# (bigger is better, e.g. devices/s). Default (advisory) mode prints
# the delta and flags regressions beyond THRESHOLD_PCT (default 10) but
# always exits 0 — shared runners are too noisy for a hard default
# gate. With WN_BENCH_STRICT=1 the gate is enforced: exit 1 on a
# regression beyond THRESHOLD_PCT, which then defaults to 25 (a margin
# wide enough that only real regressions trip it). Improvements always
# pass. Exit 2 on bad input either way. POSIX sh + awk only, so it runs
# in CI and locally without extra tooling.
set -eu

if [ "$#" -lt 2 ] || [ "$#" -gt 5 ]; then
    echo "usage: $0 BASELINE.json CANDIDATE.json [THRESHOLD_PCT] [KEY] [DIRECTION]" >&2
    exit 2
fi

baseline_file=$1
candidate_file=$2
strict=${WN_BENCH_STRICT:-0}
if [ "$strict" = "1" ]; then
    threshold=${3:-25}
else
    threshold=${3:-10}
fi
key=${4:-untraced_min_ms}
direction=${5:-lower}
case "$direction" in
    lower|higher) ;;
    *)
        echo "error: DIRECTION must be 'lower' or 'higher', got '$direction'" >&2
        exit 2
        ;;
esac

extract() {
    # Reads a top-level numeric metric. wn-bench-record-v1 documents
    # are one line with each metric key once at the top level (units
    # sit in a nested object under the same keys, after the values), so
    # the first match is the value.
    file=$1
    value=$(awk -v key="\"$2\":" '
        {
            i = index($0, key)
            if (i > 0) {
                rest = substr($0, i + length(key))
                sub(/[,}].*/, "", rest)
                print rest
                exit
            }
        }' "$file")
    if [ -z "$value" ]; then
        echo "error: $2 not found in $file" >&2
        exit 2
    fi
    echo "$value"
}

for f in "$baseline_file" "$candidate_file"; do
    if [ ! -f "$f" ]; then
        echo "error: no such file: $f" >&2
        exit 2
    fi
    schema=$(awk '{ if (index($0, "\"schema\":\"wn-bench-record-v1\"") > 0) print "ok" }' "$f")
    if [ "$schema" != "ok" ]; then
        echo "error: $f is not a wn-bench-record-v1 document" >&2
        exit 2
    fi
done

base=$(extract "$baseline_file" "$key")
cand=$(extract "$candidate_file" "$key")

awk -v base="$base" -v cand="$cand" -v threshold="$threshold" -v strict="$strict" \
    -v key="$key" -v direction="$direction" 'BEGIN {
    if (base <= 0) { print "error: baseline " key " must be positive" > "/dev/stderr"; exit 2 }
    # Normalize so positive delta always means "worse by that much".
    if (direction == "lower") {
        delta = (cand / base - 1.0) * 100.0
    } else {
        delta = (base / cand - 1.0) * 100.0
    }
    mode = (strict == "1") ? "strict" : "advisory"
    printf "%s: baseline %.3f, candidate %.3f (%+.1f%% vs %s-is-better, threshold +%s%%, %s)\n", \
        key, base, cand, delta, direction, threshold, mode
    if (delta > threshold) {
        printf "REGRESSION: candidate is %.1f%% worse than baseline\n", delta
        if (strict == "1") exit 1
        print "(advisory mode: not failing; set WN_BENCH_STRICT=1 to enforce)"
        exit 0
    }
    print "OK"
}'
