"""Benchmark for shallownet: one workload, run through the CLI, checked, and measured.

    python3 bench/run.py --workload cat-queries --seed 1 --seconds 20 --trace 0

The workload runs in a worker process of its own (``worker.py``), which
imports shallownet from ``src/`` of this checkout and calls
``shallownet.cli.main`` in rounds for about ``--seconds`` seconds.  After the
worker has ended, this process checks the outputs of its last round against
computations made apart from the program (``checks.py``), so the checks add
to neither the timed rounds nor the worker's peak memory.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics listed in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when the run completed and every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 150


def layer_value(name: str, worker: dict):
    """A per-layer metric, by name: medians over the traced rounds.

    ``<module>.<function>.calls`` and ``.self_s`` come from the spans of that
    name, ``cli.<command>.wall_s`` from the span of the command's handler,
    ``cli.self_s`` from every ``cli`` span.  A function that no longer exists
    reads 0.
    """
    if name == "trace.overhead_s":
        return statistics.median(worker["traced_wall_s"]) - statistics.median(worker["wall_s"])
    if name == "cli.report_bytes":
        return worker["report_bytes"]
    span, _, field = name.rpartition(".")
    if name == "cli.self_s":
        per_round = [sum(e["self_s"] for s, e in layers.items() if s.startswith("cli."))
                     for layers in worker["layers"]]
    elif span.startswith("cli.") and field == "wall_s":
        command = "cli.cmd_" + span[len("cli."):]
        per_round = [layers.get(command, {}).get("total_s", 0.0) for layers in worker["layers"]]
    elif field in ("calls", "self_s"):
        per_round = [layers.get(span, {}).get(field, 0) for layers in worker["layers"]]
    else:
        raise ValueError(f"no rule measures the metric {name!r}")
    return statistics.median(per_round)


def end_to_end_value(name: str, worker: dict):
    if name in ("wall_s", "cpu_s"):
        return statistics.median(worker[name])
    return worker[name]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "shallownet", "cli.py")):
        print(f"error: no shallownet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    run_dir = os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    os.makedirs(run_dir)
    try:
        started = time.monotonic()
        worker = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--started", repr(started), "--trace-file", trace_file],
            cwd=run_dir, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S,
        )
        if worker.returncode != 0:
            print(f"error: the worker exited with {worker.returncode}", file=sys.stderr)
            return 2
        with open(os.path.join(run_dir, "worker.json"), "r", encoding="utf-8") as fh:
            measured = json.load(fh)

        sys.path.insert(0, os.path.join(ROOT, "src"))
        import checks

        print(f"{args.workload} seed {args.seed}: warm-up {measured['warmup_s']:.3f} s, "
              f"rounds {[round(w, 3) for w in measured['wall_s']]} s, "
              f"traced {[round(w, 3) for w in measured['traced_wall_s']]} s", file=sys.stderr)
        problems = checks.check(args.workload, args.seed, run_dir)
        problems += [f"outputs of the {m} differ from the first round's" for m in measured["mismatches"]]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        names, value = spec["per_layer"], layer_value
    else:
        names, value = spec["end_to_end"], end_to_end_value
    correct = not problems and measured["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {m["name"]: {"value": value(m["name"], measured), "unit": m["unit"]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
