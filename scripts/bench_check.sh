#!/usr/bin/env bash
# Bench regression gate: re-run the grid bench and fail if grid-point or
# simulator throughput regresses more than the tolerance against the
# committed BENCH_grid.json baseline.
#
# Every bench entry with an element count present in BOTH the committed
# baseline and the fresh run is compared by rate = elems / median_ns
# (`grid/wall` counts grid points, the `*/sim_cycles` entries simulated
# cycles). The committed file is restored afterwards, so the working tree
# stays clean.
#
#   ILPC_BENCH_TOLERANCE  maximum allowed regression, default 0.25 (25 %).
#                         The bench host is a single shared vCPU with
#                         visible steal-time phases; raise this locally if
#                         a quiet-vs-loud phase trips the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=BENCH_grid.json
TOL="${ILPC_BENCH_TOLERANCE:-0.25}"

if [ ! -f "$BASE" ]; then
  echo "bench_check: no committed $BASE baseline — nothing to compare"
  exit 0
fi

saved=$(mktemp)
cp "$BASE" "$saved"
trap 'cp "$saved" '"$BASE"'; rm -f "$saved"' EXIT

echo "== bench regression gate (tolerance ${TOL}) =="
cargo bench -p ilpc-bench --bench grid --offline

python3 - "$saved" "$BASE" "$TOL" <<'EOF'
import json, sys

old_f, new_f, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
rate = lambda e: e["elems"] / e["median_ns"]  # elems per ns
index = lambda f: {e["name"]: e for e in json.load(open(f))["results"]
                   if e.get("elems")}
old, new = index(old_f), index(new_f)

failed = []
for name in sorted(old.keys() & new.keys()):
    r_old, r_new = rate(old[name]), rate(new[name])
    ratio = r_new / r_old
    verdict = "ok" if ratio >= 1.0 - tol else "REGRESSED"
    print(f"  {name:32s} {r_old*1e3:10.4g} -> {r_new*1e3:10.4g} Melem/s "
          f"(x{ratio:.2f}) {verdict}")
    if ratio < 1.0 - tol:
        failed.append(name)
if not (old.keys() & new.keys()):
    sys.exit("bench_check: no comparable entries between baseline and run")
if failed:
    sys.exit(f"bench_check: throughput regressed >{tol:.0%} on: "
             + ", ".join(failed))
print("bench_check: OK")
EOF
