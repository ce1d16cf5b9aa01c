#!/usr/bin/env bash
# A/A run: measures the benchmark's own bounds instead of guessing them.
#
# Builds the benchmark once and runs that one binary in two sets, A and B,
# of N runs per workload, alternating A and B and which of them goes first.
# Pair i uses seed i for both, so the sets differ by nothing but time.
# Prints, per workload x end-to-end metric, both medians with their
# quartiles, each set's spread (interquartile range / median, which is what
# the driver bounds) and the gap between the medians in the direction that
# counts as worse. Exits 1 when a spread or a gap exceeds the metric's bound
# in BENCHMARK.json, when a metric that is exact for a given seed
# (recall_at_10, modeled_ms, modeled_speedup) differs within a pair, or when
# a run fails.
#
#   benchmark/aa.sh [N=10] [workload ...]
#
# Environment: SECONDS_PER_RUN (default: run_seconds of BENCHMARK.json);
# TRACE=1 to compare the per-layer metrics instead (informational: they have
# no bound; count-derived ones must still repeat exactly); AA_LOG=<file> to
# skip the runs and judge an earlier log (benchmark/out/aa-*.jsonl) against
# the bounds as they are now.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
n="${1:-10}"
shift || true
if [ "$n" -lt 5 ]; then
    echo "aa.sh: N must be at least 5" >&2
    exit 2
fi
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(uniform32 fourier16 churn16 approx48)
fi
trace="${TRACE:-0}"
seconds="${SECONDS_PER_RUN:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}"

out="$here/out"
mkdir -p "$out"
log="${AA_LOG:-$out/aa-$(date +%Y%m%dT%H%M%S).jsonl}"

run() { # set workload seed
    local line
    if ! line="$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)"; then
        echo "aa.sh: run failed: set $1 workload $2 seed $3" >&2
    fi
    printf '{"set": "%s", "workload": "%s", "seed": %s, "result": %s}\n' "$1" "$2" "$3" "${line:-null}" >> "$log"
}

if [ -z "${AA_LOG:-}" ]; then
    export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
    bin="$CARGO_TARGET_DIR/release/parsim-benchmark"
    : > "$log"
    for w in "${workloads[@]}"; do
        for i in $(seq 1 "$n"); do
            if [ $((i % 2)) -eq 1 ]; then first=A; second=B; else first=B; second=A; fi
            run "$first" "$w" "$i"
            run "$second" "$w" "$i"
            echo "aa.sh: $w pair $i/$n done" >&2
        done
    done
fi

python3 - "$log" "$root/BENCHMARK.json" "$trace" <<'PY'
import json, statistics, sys

log, bench, trace = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[3] == "1"
specs = bench["per_layer"] if trace else bench["end_to_end"]
# Pure functions of the seed: the same seed must give the same value.
exact = {"recall_at_10", "modeled_ms", "modeled_speedup", "decluster.max_over_avg_load",
         "decluster.disks_hit_per_query", "index.pages_per_query", "index.dist_evals_per_query",
         "index.rows_visited_share", "index.dist_evals_saved_share", "index.pruned_per_query",
         "index.lsh_candidates_per_query", "index.lsh_empty_probe_share"}
runs = [json.loads(line) for line in open(log)]
bad = []
for r in runs:
    if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]:
        bad.append(f'{r["workload"]} seed {r["seed"]} set {r["set"]}: run failed or incorrect')

def quartiles(v):
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]

print(f'{"workload":10} {"metric":34} {"A q1/med/q3":>34} {"B q1/med/q3":>34} '
      f'{"spreadA":>8} {"spreadB":>8} {"gap":>8} {"bound":>6}')
worst = {}
for w in dict.fromkeys(r["workload"] for r in runs):
    for m in specs:
        name = m["name"]
        sets = {}
        for s in "AB":
            sets[s] = {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs
                       if r["workload"] == w and r["set"] == s and r["result"]}
        a, b = list(sets["A"].values()), list(sets["B"].values())
        if len(a) < 2 or len(b) < 2:
            continue
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        spread_a = (a3 - a1) / abs(am) if am else 0.0
        spread_b = (b3 - b1) / abs(bm) if bm else 0.0
        # Positive gap = B worse than A; the larger of the two directions is
        # what a bound has to absorb, since A and B are the same program.
        gap = abs(bm - am) / abs(am) if am else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and (max(spread_a, spread_b) > bound or gap > bound):
            flag = "  <-- over bound"
            bad.append(f"{w} {name}: spread {max(spread_a, spread_b):.4f} gap {gap:.4f} bound {bound}")
        if name in exact:
            for seed in sets["A"].keys() & sets["B"].keys():
                if sets["A"][seed] != sets["B"][seed]:
                    flag = "  <-- not exact"
                    bad.append(f"{w} {name} seed {seed}: {sets['A'][seed]} != {sets['B'][seed]}")
        worst[name] = max(worst.get(name, 0.0), spread_a, spread_b, gap)
        print(f"{w:10} {name:34} {a1:10.4g}/{am:10.4g}/{a3:10.4g} {b1:10.4g}/{bm:10.4g}/{b3:10.4g} "
              f"{spread_a:8.4f} {spread_b:8.4f} {gap:8.4f} {bound if bound is not None else '-':>6}{flag}")
print()
print("largest spread or gap seen per metric, over all workloads:")
for name, v in worst.items():
    print(f"  {name:34} {v:.4f}")
if bad:
    print("\nFAILED:")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("\nA/A passed: every spread and gap within its bound, exact metrics repeat.")
PY
