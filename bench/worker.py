"""One pass of one workload, in a fresh interpreter.

Run as ``python3 -m bench.worker JOB.json [TRACE.json]`` by the benchmark;
the job file is what ``bench.inputs.build`` wrote.  The pass prints one JSON
object on its last line of standard output:

* ``setup_s``: CPU time of this interpreter from its start until the inputs
  were loaded; ``ready`` is ``time.monotonic()`` at that moment, so the
  parent can also measure set-up in wall time from the moment it started
  this interpreter
* ``pass_s`` and ``pass_wall_s``: CPU and wall time spent inside the
  workload's timed blocks (the benchmark rescales the CPU times by the
  calibration that ran beside this interpreter; see ``bench/calibrate.py``)
* ``peak_rss_mb``: peak resident memory of this interpreter over the pass
* ``attempted``: the number of checked outputs; ``failed``: the name and
  message of each check that failed
* ``digests`` (catalog only) and ``trace`` (when a trace file is named)
"""

from __future__ import annotations

import json
import resource
import sys
import time

from .paths import use_source_tree


def main(argv: list[str]) -> int:
    job_path = argv[0]
    trace_path = argv[1] if len(argv) > 1 else None
    with open(job_path) as handle:
        job = json.load(handle)
    use_source_tree()

    from . import workloads

    setup, run = workloads.WORKLOADS[job["workload"]]
    tracer = None
    if trace_path:
        from .tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        state = setup(job)
        setup_cpu = time.process_time()
        ready = time.monotonic()
        clock = workloads.Clock()
        results = run(job, state, clock)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.remove()
    failed = [r for r in results if not r[1]]
    out = {
        "ready": ready,
        "setup_s": setup_cpu,
        "pass_s": clock.cpu,
        "pass_wall_s": clock.wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(results),
        "failed": [[name, message] for name, _, message in failed],
    }
    if "digests" in state:
        out["digests"] = state["digests"]
    if tracer is not None:
        out["trace"] = {"self_s": tracer.self_times(), "total_s": tracer.total_times(),
                        "counters": tracer.counters}
        with open(trace_path, "w") as handle:
            json.dump({"workload": job["workload"], "seed": job["seed"],
                       "spans": tracer.spans}, handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
