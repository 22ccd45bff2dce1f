"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 -m bench.spread --workload catalog --runs 10 --first-seed 100

Runs the benchmark ``--runs`` times, one after another, each with the next
seed and with ``run_seconds`` from ``BENCHMARK.json``, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``),
the spread (quartile distance over the median) and the metric's bound.  A
spread under a third of its bound is marked ``ok``.  The runs are also
written to ``.bench_out/spread-<workload>-<first seed>.json``.

    python3 -m bench.spread --compare FIRST.json SECOND.json

compares two such sets of one workload: for every end-to-end metric, the
second median over the first, marked ``ok`` when the second is not worse
than the first by more than the bound, and the failed share of each set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from .paths import OUT, ROOT


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 -m bench.spread", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, "-m", "bench", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(dict(result, seed=seed))
        values = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {values}", flush=True)

    report = {"workload": args.workload, "runs": runs, "metrics": {}}
    print(f"\n{args.workload}: {len(runs)} runs of {spec['run_seconds']} s")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        report["metrics"][name] = dict(stats, bound=metric["bound"])
        mark = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
        print(f"{name:<14}{stats['median']:>12.5g}{stats['q1']:>12.5g}{stats['q3']:>12.5g}"
              f"{stats['spread']:>9.4f}{metric['bound']:>8}  {mark}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{args.workload}-{args.first_seed}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


def compare(spec: dict, first_path: str, second_path: str) -> int:
    first, second = (json.loads(open(p).read()) for p in (first_path, second_path))
    if first["workload"] != second["workload"]:
        raise SystemExit("the two sets are of different workloads")
    print(f"{first['workload']}: second set over first")
    print(f"{'metric':<14}{'first':>12}{'second':>12}{'ratio':>8}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = first["metrics"][name]["median"], second["metrics"][name]["median"]
        worse = b / a - 1 if metric["better"] == "lower" else a / b - 1
        print(f"{name:<14}{a:>12.5g}{b:>12.5g}{b / a:>8.3f}{bound:>8}  {'ok' if worse <= bound else 'WORSE'}")
    for label, report in (("first", first), ("second", second)):
        shares = sorted({r["failed"] / r["attempted"] for r in report["runs"]})
        print(f"failed share per run, {label} set: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
