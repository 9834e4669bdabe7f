"""Tiny-scale smoke run of every benchmark workload, untraced and traced.

Run from the repository root:

    python3 bench/smoke.py

Each workload runs at a small shape with fewer permutations and null
replicates, through the same generation, passes, tracing and checks as
``run.py``, in well under a minute.  The script prints one line per run
and exits nonzero if any run is incorrect, fails a pass or reports a
per-layer metric as absent.
"""

from __future__ import annotations

import dataclasses
import sys

import run

#: per workload: a small shape, the generator's median m_tilde at that shape, and shorter CLI calls
TINY = {
    "cardio": dict(
        m=600,
        design_m_tilde=15.7,
        commands=(
            ("audit", "{input}", "--groups", "44,19", "--L", "200", "--reps", "20",
             "--seed", "{seed}", "--out", "{out}"),
        ),
    ),
    "wide": dict(
        m=300,
        n=80,
        design_m_tilde=14.4,
        commands=(("audit", "{input}", "--L", "200", "--reps", "20", "--seed", "{seed}", "--out", "{out}"),),
    ),
    "screen": dict(
        m=60,
        n=150,
        design_m_tilde=10.8,
        commands=(
            ("permtest", "{input}", "--stat", "block", "--L", "200", "--seed", "{seed}", "--out", "{out}"),
            ("permtest", "{input}", "--stat", "trace", "--L", "50", "--seed", "{seed}", "--out", "{out}"),
            ("fdr-scan", "{input}", "--seed", "{seed}", "--out", "{out}"),
        ),
    ),
}


def main() -> int:
    error = run.prepare()
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
        return 2
    from workloads import WORKLOADS

    bad = 0
    for name, workload in WORKLOADS.items():
        tiny = dataclasses.replace(workload, **TINY[name])
        for trace in (False, True):
            result, record = run.run(tiny, seed=0, seconds=0.0, trace=trace)
            ok = result["correct"] and result["failed"] == 0 and not record["absent_layer_metrics"]
            bad += not ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {name:<7} {tiny.m}x{tiny.n} trace={int(trace)} "
                f"passes={result['attempted']} problems={record['problems']} "
                f"absent={record['absent_layer_metrics']}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
