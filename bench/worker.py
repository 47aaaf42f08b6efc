"""One workload in a process of its own: set-up, then timed rounds of CLI calls.

Started by ``run.py`` with the run directory as working directory and with
the monotonic clock reading taken just before the start, so that the set-up
time covers interpreter start, the imports of numpy and shallownet, and the
writing of the inputs.  Rounds call ``shallownet.cli.main`` in-process: one
untimed warm-up round, then timed rounds for about ``--seconds`` seconds.
With ``--trace 1`` each timed round is followed by a traced one.  Every round
must write the same bytes as the warm-up round.  The measurements go to ``worker.json``;
the spans of the traced rounds go to the ``--trace-file``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _outputs() -> dict:
    """Digest and size of every file under ``out/``."""
    found = {}
    for folder, _, names in os.walk("out"):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                data = fh.read()
            found[path] = (hashlib.sha256(data).hexdigest(), len(data))
    return found


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401
    import shallownet
    from shallownet import cli

    if not os.path.abspath(shallownet.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"shallownet imported from {shallownet.__file__}, not from this checkout")
    import workloads
    from tracer import Tracer, summarize

    round_argv = workloads.prepare(args.workload, args.seed)
    tracer = Tracer(shallownet) if args.trace else None
    counts = {"attempted": 0, "failed": 0}

    def run_round() -> tuple:
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for argv in round_argv:
            counts["attempted"] += 1
            try:
                code = cli.main(list(argv))
            except Exception:  # a crash is a failed operation; the run goes on
                traceback.print_exc()
                code = None
            if code != 0:
                counts["failed"] += 1
                print(f"failed ({code}): shallownet {' '.join(argv)}", file=sys.stderr)
        return time.perf_counter() - wall0, time.process_time() - cpu0

    setup_s = time.monotonic() - args.started
    # The first round in a process can run much slower (large temporaries
    # come from freshly mapped pages until glibc's mmap threshold has risen).
    # It runs untimed, so that the timed rounds are alike.
    warmup_s, _ = run_round()
    reference = _outputs()
    walls, cpus, traced_walls, layers, spans = [], [], [], [], []
    mismatches = []
    deadline = time.monotonic() + args.seconds
    longest = 0.0
    while True:
        began = time.monotonic()
        wall, cpu = run_round()
        walls.append(wall)
        cpus.append(cpu)
        if _outputs() != reference:
            mismatches.append(f"untraced round {len(walls)}")
        if tracer is not None:
            tracer.install()
            try:
                wall, _ = run_round()
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            spans.append(tracer.take())
            layers.append(summarize(spans[-1]))
            if _outputs() != reference:
                mismatches.append(f"traced round {len(traced_walls)}")
        # A round starts only if it should end within the run's seconds.
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if spans:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"], "rounds": spans}, fh)
    with open("worker.json", "w", encoding="utf-8") as fh:
        json.dump({
            "setup_s": setup_s,
            "warmup_s": warmup_s,
            "wall_s": walls,
            "cpu_s": cpus,
            "traced_wall_s": traced_walls,
            "peak_rss_mb": peak_rss_mb,
            "report_bytes": sum(size for _, size in reference.values()),
            "layers": layers,
            "mismatches": mismatches,
            **counts,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
