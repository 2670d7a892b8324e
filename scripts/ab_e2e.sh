#!/usr/bin/env bash
# A/B comparison of the end-to-end benchmark (BENCHMARK.json) between a
# parent revision and the working tree.
#
#   scripts/ab_e2e.sh <parent-rev> <workload> [pairs=10] [seconds=20]
#
# Both sides are copied into a temporary directory (the parent with
# `git archive`, the working tree with its tracked and untracked,
# non-ignored files) and built from the benchmark's own manifest, exactly as
# BENCHMARK.json runs it. The script then runs `pairs` alternating pairs,
# swapping which side goes first from pair to pair, with a fresh seed per
# pair (AB_SEED_BASE + pair number; AB_SEED_BASE defaults to 1000, away from
# the small seeds used while developing). A shared host drifts over minutes,
# so interleaved pairs compare like with like where batched runs would not.
#
# For every end-to-end metric BENCHMARK.json declares, it prints each side's
# median and quartiles and how many pairs the working tree won (ties count
# for neither side), plus whether the gain rule holds: at least nine tenths
# of the pairs won and the medians further apart than the parent's
# interquartile range. It exits non-zero if any run is incorrect
# (`"correct": false` or a failed operation) or exits non-zero itself.
#
# Set AB_TRACE=1 to finish with one traced run (`--trace 1`) per side, on
# seed AB_SEED_BASE, and print every per-layer metric BENCHMARK.json declares
# side by side: parent, change and their ratio. One traced pair is the
# evidence of which layer moved, not a gain test.
#
# Set AB_KEEP=1 to keep the temporary directory (builds and raw results).
set -euo pipefail

if [[ $# -lt 2 ]]; then
    sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-20}
seed_base=${AB_SEED_BASE:-1000}

repo=$(git rev-parse --show-toplevel)
manifest=crates/bench/src/bin/e2e/Cargo.toml
work=$(mktemp -d "${TMPDIR:-/tmp}/ab_e2e.XXXXXX")
if [[ -z ${AB_KEEP:-} ]]; then
    trap 'rm -rf "$work"' EXIT
fi
echo "work dir: $work" >&2

mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
git -C "$repo" ls-files -z --cached --others --exclude-standard \
    | (cd "$repo" && tar --null -T - -cf -) | tar -x -C "$work/change"

for side in parent change; do
    echo "building $side ..." >&2
    cargo build --release --quiet --manifest-path "$work/$side/$manifest"
done

results="$work/results.jsonl"
traced="$work/traced.jsonl"
: > "$results"
: > "$traced"
# run <side> <pair> <seed> <trace> <file>: one benchmark run, appended to
# <file> as one JSON line.
run() {
    local side=$1 pair=$2 seed=$3 trace=$4 file=$5 line status=0
    line=$(cd "$work/$side" && cargo run --release --quiet --manifest-path "$manifest" -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) \
        || status=$?
    if [[ $line != "{"* ]]; then
        # No result line: count the run as incorrect, keep going.
        line="{\"correct\": false, \"exit\": $status, \"metrics\": {}}"
    fi
    echo "{\"side\": \"$side\", \"pair\": $pair, \"seed\": $seed, \"run\": $line}" >> "$file"
    echo "pair $pair seed $seed $side trace $trace: ${line:0:300}" >&2
}
for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((seed_base + pair))
    if ((pair % 2)); then
        run parent "$pair" "$seed" 0 "$results"
        run change "$pair" "$seed" 0 "$results"
    else
        run change "$pair" "$seed" 0 "$results"
        run parent "$pair" "$seed" 0 "$results"
    fi
done
if [[ -n ${AB_TRACE:-} ]]; then
    run parent 0 "$seed_base" 1 "$traced"
    run change 0 "$seed_base" 1 "$traced"
fi

python3 - "$results" "$traced" "$repo/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

results_path, traced_path, benchmark_path, workload = sys.argv[1:5]
benchmark = json.load(open(benchmark_path))
metrics = benchmark["end_to_end"]
runs = [json.loads(line) for line in open(results_path)]
traced = [json.loads(line) for line in open(traced_path)]

bad = [r for r in runs + traced
       if not r["run"].get("correct") or r["run"].get("failed", 0) != 0]
by_pair = {}
for r in runs:
    by_pair.setdefault(r["pair"], {})[r["side"]] = r["run"]["metrics"]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

print(f"workload {workload}: {len(by_pair)} pairs")
print(f"{'metric':<16} {'better':<7} {'parent q1/median/q3':<34} {'change q1/median/q3':<34} wins  gain")
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    pairs = [(p["parent"][name]["value"], p["change"][name]["value"])
             for p in by_pair.values()
             if name in p.get("parent", {}) and name in p.get("change", {})]
    if not pairs:
        continue
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    wins = sum((b > a) if higher else (b < a) for a, b in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    better_median = (cm - pm) if higher else (pm - cm)
    gain = wins * 10 >= len(pairs) * 9 and better_median > p3 - p1
    print(f"{name:<16} {metric['better']:<7} "
          f"{p1:>10.4g} {pm:>10.4g} {p3:>10.4g}     {c1:>10.4g} {cm:>10.4g} {c3:>10.4g}     "
          f"{wins:>2}/{len(pairs):<2} {'yes' if gain else 'no'}")

if traced:
    sides = {r["side"]: r["run"]["metrics"] for r in traced}
    parent, change = sides.get("parent", {}), sides.get("change", {})
    print(f"\ntraced pair, seed {traced[0]['seed']}: every per-layer metric")
    print(f"{'metric':<34} {'unit':<8} {'better':<7} {'parent':>12} {'change':>12} {'ratio':>7}")
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        a = parent.get(name, {}).get("value")
        b = change.get(name, {}).get("value")
        ratio = f"{b / a:7.3f}" if a and b is not None else f"{'-':>7}"
        show = lambda v: f"{v:>12.5g}" if v is not None else f"{'-':>12}"
        print(f"{name:<34} {metric['unit']:<8} {metric['better']:<7} {show(a)} {show(b)} {ratio}")

if bad:
    for r in bad:
        print(f"INCORRECT: pair {r['pair']} {r['side']} seed {r['seed']}: {json.dumps(r['run'])[:200]}")
    sys.exit(1)
print("every run correct")
EOF
