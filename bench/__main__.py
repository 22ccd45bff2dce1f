"""Run one workload and print its metrics as the last line of standard output.

    python3 -m bench --workload catalog --seed 0 --seconds 30 --trace 0

The inputs are built from the seed first (not timed), then passes run one
after another, each in a fresh interpreter, until the next pass would end
after ``--seconds``; at least one untraced pass runs, and at least as many
passes in all as the job's ``min_passes`` (2 for the catalog, whose check
compares the report bytes of its passes).  Every end-to-end metric is the
median over the run's untraced passes.  Times are CPU seconds of the pass
interpreter, rescaled to the reference speed by the calibration that runs
beside it on the same CPU (``bench/calibrate.py``); the raw CPU and wall
times are kept in the result file.  A pass that crashes or times out counts
as one failed operation; a run that could measure nothing prints its
failures and exits with status 1.  With ``--trace 1`` one traced pass runs
first and the output holds the per-layer metrics instead, plus the tracing
overhead (traced pass minus the untraced median).  Results and spans are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from .calibrate import REFERENCE_S
from .paths import OUT, ROOT, SRC, use_source_tree

PASS_TIMEOUT_S = 150
# the calibration's priority below the pass: the scheduler then gives it
# about a tenth of the CPU they share (weights 1024 and 110)
CALIBRATION_NICE = 10


class PassError(RuntimeError):
    """A pass that crashed or printed no result."""


def _pinned(cpu: int, nice: int = 0):
    """A ``preexec_fn`` that puts the child on one CPU, at ``nice`` below us."""
    def apply() -> None:
        os.sched_setaffinity(0, {cpu})
        if nice:
            os.nice(nice)
    return apply


def run_pass(job_path, trace_path=None) -> dict:
    cmd = [sys.executable, "-m", "bench.worker", str(job_path)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cpu = min(os.sched_getaffinity(0))
    calibration = subprocess.Popen([sys.executable, "-m", "bench.calibrate"], cwd=ROOT,
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                   preexec_fn=_pinned(cpu, CALIBRATION_NICE))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, preexec_fn=_pinned(cpu))
    except subprocess.TimeoutExpired:
        raise PassError(f"pass timed out after {PASS_TIMEOUT_S} s") from None
    finally:
        try:
            cal_out, _ = calibration.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            calibration.kill()
            cal_out, _ = calibration.communicate()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result["ready"] - started
    cal = json.loads(cal_out.strip().splitlines()[-1]) if cal_out.strip() else {"units": 0}
    if not cal["units"]:
        raise PassError("the calibration beside the pass did no work")
    result["calibration"] = cal
    # CPU seconds at the reference speed: the calibration met the same host
    # states as the pass, so a change of host speed cancels out of the ratio
    scale = REFERENCE_S * cal["units"] / cal["cpu_s"]
    result["setup_ref_s"] = result["setup_s"] * scale
    result["pass_ref_s"] = result["pass_s"] * scale
    return result


def _digest_results(passes: list[dict]) -> list[tuple[str, bool]]:
    """Every pass's per-entry report digest against the first pass's."""
    if not passes or "digests" not in passes[0]:
        return []
    first = passes[0]["digests"]
    return [(f"pass{n}/{entry}/report-bytes", p.get("digests", {}).get(entry) == digest)
            for n, p in enumerate(passes) for entry, digest in sorted(first.items())]


def main(argv=None) -> int:
    from . import inputs

    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    OUT.mkdir(exist_ok=True)

    try:
        job = inputs.build(args.workload, args.seed)
    except Exception as exc:
        # the inputs are built through the program's loaders: nothing can be measured
        print(f"FAILED inputs.build: {exc!r}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    job_path = OUT / f"job-{args.workload}-{args.seed}.json"
    job_path.write_text(json.dumps(job))

    window = time.monotonic()
    crashed: list[tuple[str, str]] = []
    walls: list[float] = []

    def attempt(name, trace_path=None):
        started = time.monotonic()
        try:
            return run_pass(job_path, trace_path)
        except PassError as exc:
            crashed.append((name, str(exc)))
            return None
        finally:
            walls.append(time.monotonic() - started)

    traced = None
    if args.trace:
        traced = attempt("traced-pass", OUT / f"trace-{args.workload}-{args.seed}.json")
    passes: list[dict] = []
    need = max(1, job.get("min_passes", 1) - (1 if args.trace else 0))
    tries = 0
    while True:
        tries += 1
        result = attempt(f"pass{tries}")
        if result is not None:
            passes.append(result)
        if tries >= need and time.monotonic() - window + statistics.median(walls) > args.seconds:
            break

    every = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in every) + len(crashed)
    failures = [name for p in every for name, _ in p["failed"]] + [name for name, _ in crashed]
    for name, message in crashed:
        print(f"FAILED {name}: {message}", file=sys.stderr)
    digests = _digest_results(every)
    attempted += len(digests)
    failures += [name for name, ok in digests if not ok]
    for p in every:
        for name, message in p["failed"][:20]:
            print(f"FAILED {name}: {message}", file=sys.stderr)

    metrics = {}
    if args.trace and traced and passes:
        from .tracer import layer_metrics

        overhead = traced["pass_ref_s"] - statistics.median(p["pass_ref_s"] for p in passes)
        metrics = layer_metrics(traced["trace"], overhead)
    elif not args.trace and passes:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_ref_s"] for p in passes), "unit": "s"},
            "pass_s": {"value": statistics.median(p["pass_ref_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, passes=len(passes),
                  **{key: [p[key] for p in passes]
                     for key in ("pass_ref_s", "setup_ref_s", "pass_s", "pass_wall_s", "setup_s",
                                 "setup_wall_s", "calibration")})
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
