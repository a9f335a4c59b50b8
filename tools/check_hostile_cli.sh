#!/usr/bin/env bash
# Hostile command-line input through the real tools: each case must be
# refused with an ordinary nonzero exit (an error message, not a crash
# by signal, and not a printed result).
#
#   - mtrap_sim --cores 0, --instructions 0 and --arrivals 0 are usage
#     errors (exit 1), and so are an arrival-process flag without
#     --arrivals, a scheduler flag without --timeshare or --arrivals,
#     and a filter-cache flag under a scheme without a filter cache;
#   - a JSON document nested 200000 levels deep is a parse error for
#     mtrap_trace --validate and mtrap_perf --compare-only.
#
# Usage: check_hostile_cli.sh MTRAP_SIM MTRAP_TRACE MTRAP_PERF
set -u
sim="${1:?usage: check_hostile_cli.sh MTRAP_SIM MTRAP_TRACE MTRAP_PERF}"
trace="${2:?usage: check_hostile_cli.sh MTRAP_SIM MTRAP_TRACE MTRAP_PERF}"
perf="${3:?usage: check_hostile_cli.sh MTRAP_SIM MTRAP_TRACE MTRAP_PERF}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
status=0

# expect_exit WANT NAME CMD...: WANT is an exact code, or "error" for
# any code in 1..127 (128 and above means killed by a signal).
expect_exit() {
    local want="$1" name="$2"
    shift 2
    "$@" > "$tmp/out" 2>&1
    local got=$?
    if [ "$want" = error ]; then
        [ "$got" -ge 1 ] && [ "$got" -le 127 ] && return 0
    elif [ "$got" -eq "$want" ]; then
        return 0
    fi
    echo "check_hostile_cli: $name: exit $got, wanted $want"
    tail -5 "$tmp/out"
    status=1
}

expect_exit 1 "mtrap_sim --cores 0" \
    "$sim" --workload mcf --timeshare gcc --cores 0 \
    --instructions 1000 --warmup 100
expect_exit 1 "mtrap_sim --cores 0 (no time-sharing)" \
    "$sim" --workload mcf --cores 0 --instructions 1000 --warmup 100
expect_exit 1 "mtrap_sim --instructions 0" \
    "$sim" --workload mcf --instructions 0
expect_exit 1 "mtrap_sim --arrivals 0" \
    "$sim" --arrivals 0 --cores 4
expect_exit 1 "mtrap_sim --sleep-period without --arrivals" \
    "$sim" --workload mcf --instructions 2000 --sleep-period 50
expect_exit 1 "mtrap_sim --arrival-mean without --arrivals" \
    "$sim" --workload mcf --instructions 2000 --arrival-mean 500
expect_exit 1 "mtrap_sim --deadline-factor without --arrivals" \
    "$sim" --workload mcf --instructions 2000 --deadline-factor 3
for flag in "--cores 2" "--quantum 100" --no-gang --no-migrate --affinity \
            "--sched-trace $tmp/sched.csv"; do
    # shellcheck disable=SC2086  # the flag and its value are two words
    expect_exit 1 "mtrap_sim $flag without --timeshare/--arrivals" \
        "$sim" --workload mcf --instructions 2000 --warmup 200 $flag
done
expect_exit 1 "mtrap_sim --filter-size under Baseline" \
    "$sim" --workload mcf --instructions 2000 --warmup 200 \
    --filter-size 4096 --scheme Baseline
expect_exit 1 "mtrap_sim --filter-assoc under STT-Spectre" \
    "$sim" --workload mcf --instructions 2000 --warmup 200 \
    --scheme STT-Spectre --filter-assoc 8

head -c 200000 /dev/zero | tr '\0' '[' > "$tmp/deep.json"
expect_exit error "mtrap_trace --validate on deep JSON" \
    "$trace" --validate "$tmp/deep.json"
expect_exit error "mtrap_perf --compare-only on deep JSON" \
    "$perf" --compare-only "$tmp/deep.json" "$tmp/deep.json"

[ "$status" -eq 0 ] && echo "check_hostile_cli: all cases refused cleanly"
exit "$status"
