"""One execution of one workload, in a fresh interpreter started by run.py.

Prints one JSON line: the time the first training step started, the time the
last artifact was on disk, peak memory, the workload summary (training runs
and gate failures) and, when traced, the per-layer metrics. The parent
computes ``setup_s`` from its own clock reading taken before it started this
process; ``time.perf_counter`` is the system-wide monotonic clock, so the
readings compare across processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import clocks
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True, choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--dir", required=True, help="empty directory for this execution")
    args = parser.parse_args()

    out_dir = Path(args.dir)
    marker_dir = out_dir / "markers"
    marker_dir.mkdir()
    if args.trace:
        import tracer as tracer_mod

        spans_dir = out_dir / "spans"
        spans_dir.mkdir()
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer, marker_dir, spans_dir)
    else:
        clocks.install_first_step_clock(marker_dir)

    summary = workloads.RUNNERS[args.workload](out_dir, args.seed, args.scale)
    t_done = time.perf_counter()

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "t_first_step": clocks.first_step_time(marker_dir),
        "t_done": t_done,
        "peak_rss_mb": rss_kib / 1024.0,
        "summary": summary,
    }
    if args.trace:
        procs = tracer_mod.collect(tracer, spans_dir)
        tracer_mod.write_spans(procs, out_dir / "spans.tsv")
        result["per_layer"] = tracer_mod.per_layer_metrics(
            procs,
            zeros_written=_zeros_written(out_dir),
            adapter_params=sum(run["adapter_params"] for run in summary["runs"]),
            jobs=summary.get("jobs", 1),
        )
    print(json.dumps(result))


def _zeros_written(out_dir: Path) -> int:
    """Zeros the program says its prune events wrote, from every metrics log."""
    total = 0
    for path in out_dir.rglob("metrics.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                total += sum(e["zeros_written"] for e in json.loads(line)["prune_events"])
    return total


if __name__ == "__main__":
    main()
