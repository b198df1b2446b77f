"""Hooks on the clock that ``train()`` reads.

``train()`` calls ``time.perf_counter()`` exactly twice per step: when the
step starts and when it ends (after any prune event). Standing in for the
``time`` module of ``prilora.train_harness`` is therefore the one way to see
step boundaries from outside the program without editing it.

The first training step of each process leaves a marker file holding its
start time; ``setup_s`` ends and ``wall_s`` starts at the earliest marker.
Pool workers forked by ``prilora ablate`` inherit the hook and leave their
own markers.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from prilora import train_harness


def mark_first_step(marker_dir: Path, t: float) -> None:
    (marker_dir / f"first_step.{os.getpid()}").write_text(repr(t), encoding="utf-8")


def first_step_time(marker_dir: Path) -> float:
    marks = [float(p.read_text(encoding="utf-8")) for p in marker_dir.glob("first_step.*")]
    if not marks:
        raise RuntimeError("no training step started")
    return min(marks)


class FirstStepClock:
    """Marks the first step, then hands ``train()`` the real clock back."""

    def __init__(self, marker_dir: Path):
        self.marker_dir = marker_dir

    def perf_counter(self) -> float:
        t = time.perf_counter()
        train_harness.time = time
        mark_first_step(self.marker_dir, t)
        return t

    def __getattr__(self, name):
        return getattr(time, name)


def install_first_step_clock(marker_dir: Path) -> None:
    train_harness.time = FirstStepClock(marker_dir)
