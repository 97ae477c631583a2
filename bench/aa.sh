#!/usr/bin/env bash
# A/A check: two sets of runs of the same code. For every seed and workload
# the sets take turns (a, b, a, b, ...), each run a fresh process, so a noisy
# minute on the host falls on both; each set's value of a metric is the median
# of its runs. Prints every end-to-end metric's relative difference beside its
# bound from BENCHMARK.json and exits non-zero when one exceeds it. Repeats on
# a second seed, which also shows that the output checks and the pinned
# status histograms follow the seed.
#
#   bench/aa.sh [seed ...]        (default seeds: 1996 7)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1996 7)
runs=3 # per set: the committed table and the bounds argument in README.md use 3
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for seed in "${seeds[@]}"; do
	for w in $workloads; do
		for run in $(seq "$runs"); do
			for set in a b; do
				echo "aa: seed $seed workload $w run $run of set $set" >&2
				bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
					tail -n 1 >"$out/$seed-$w-$set-$run.json"
			done
		done
	done
done

python3 - "$out" "$runs" "${seeds[@]}" <<'EOF'
import json, statistics, sys
out, runs, seeds = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
manifest = json.load(open("BENCHMARK.json"))
failed = False
print(f"| seed | workload | metric | set a | set b | difference | bound |")
print("|---|---|---|---|---|---|---|")
for seed in seeds:
    for w in (w["name"] for w in manifest["workloads"]):
        sets = {s: [json.load(open(f"{out}/{seed}-{w}-{s}-{r}.json")) for r in range(1, runs + 1)] for s in "ab"}
        if not all(r["correct"] for rs in sets.values() for r in rs):
            print(f"aa: seed {seed} workload {w}: an output check failed", file=sys.stderr)
            failed = True
        for m in manifest["end_to_end"]:
            va, vb = (statistics.median(r["metrics"][m["name"]]["value"] for r in sets[s]) for s in "ab")
            diff = abs(va - vb) / min(va, vb)
            over = diff > m["bound"]
            failed = failed or over
            print(f"| {seed} | {w} | {m['name']} | {va:.4g} | {vb:.4g} | {diff:.2%}{' OVER' if over else ''} | {m['bound']:.0%} |")
sys.exit(1 if failed else 0)
EOF
