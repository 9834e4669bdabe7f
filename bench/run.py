"""Benchmark the colindep CLI end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload cardio --seed 1 --seconds 45 --trace 0

The benchmark generates the workload's input from ``--seed`` (see
``workloads.py``), then runs passes of the workload's fixed CLI calls
through the in-process entry point ``colindep.cli.main``, so ingest,
the pipeline and report writing are all timed.  Each pass runs with its
own CLI ``--seed``, derived from ``--seed``.  Passes go on until the pass
boundary nearest to ``--seconds`` (at least one), and every pass's
reports are checked against the benchmark's own oracle.

With ``--trace 0`` the result carries the end-to-end metrics: median
``pass_s``, ``peak_rss_mb`` of this process, and ``setup_s``, the median
time for a fresh interpreter to import ``colindep.cli``.  With
``--trace 1`` one untraced and one traced pass run with the same CLI
seed, the traced reports must match the untraced ones byte for byte with
timings removed, and the result carries the per-layer
metrics of the traced pass (see ``tracing.py``).
The last line of standard output is the result as one JSON object; the
lines before it record the input, the environment and each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: fresh-interpreter imports timed for setup_s
SETUP_IMPORTS = 5
#: a child interpreter that takes longer than this has hung
SUBPROCESS_TIMEOUT_S = 120


def cap_blas_threads() -> None:
    """Keep OpenMP and OpenBLAS threads at most the usable core count.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def environment() -> dict:
    """Cores, CPU, BLAS, thread settings and library versions of this run."""
    import numpy as np
    import scipy

    import colindep

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_name,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "colindep": colindep.__version__,
    }


def machine_ref_s() -> float:
    """Median time of a fixed pure-numpy kernel, a record of the box's speed.

    The code under test never changes it, so a move in it is the box.
    The kernel mixes what the passes do: axis sweeps over a 10 MB array,
    a Gram product, a small SVD and a sort.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.standard_normal((20000, 64))
    small = rng.standard_normal((1500, 200))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        b = (big - big.mean(0)) / big.std(0)
        b = (b - b.mean(1, keepdims=True)) / b.std(1, keepdims=True)
        b.T @ b
        np.linalg.svd(small, full_matrices=False)
        np.sort(small, axis=0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup_s() -> float:
    """Median wall time for a fresh interpreter to import colindep.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import colindep.cli"]
    times = []
    for _ in range(SETUP_IMPORTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(cli, workload, input_path: Path, cli_seed: int, workdir: Path, index: int, tracer=None) -> dict:
    """One pass of the workload's CLI calls with ``--seed cli_seed``; outputs go to ``workdir``."""
    outputs, codes, error = [], [], None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        for k, template in enumerate(workload.commands):
            out = workdir / f"pass{index}_{k}.json"
            argv = [arg.format(input=input_path, out=out, seed=cli_seed) for arg in template]
            code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, argv)
            codes.append(code)
            outputs.append(out)
            if code != 0:
                break
    except Exception:
        error = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "cli_seed": cli_seed, "codes": codes, "error": error, "outputs": outputs}


def check_passes(workload, x, passes: list[dict]) -> list[str]:
    """Mark each pass ok or not and return the problems found.

    Every pass's reports are checked against the oracle.  Passes that ran
    with the same CLI seed must also give the same reports byte for byte
    once timings are removed.
    """
    from workloads import Oracle, canonical_digest, check_report

    problems: list[str] = []
    oracle = None
    first_digests: dict[int, list[str]] = {}
    runs_per_seed = Counter(p["cli_seed"] for p in passes)
    for i, p in enumerate(passes):
        p["ok"] = p["error"] is None and p["codes"] == [0] * len(workload.commands)
        if not p["ok"]:
            problems.append(f"pass {i} failed: exit codes {p['codes']} {p['error'] or ''}".strip())
            continue
        oracle = oracle or Oracle(x)
        content: list[str] = []
        for command, out in zip(workload.commands, p["outputs"]):
            try:
                with open(out) as fh:
                    content += check_report(workload, oracle, command, json.load(fh))
            except (KeyError, TypeError, ValueError) as exc:
                content.append(f"{command[0]}: malformed report: {exc!r}")
        if content:
            p["ok"] = False
            problems += [f"pass {i}: {problem}" for problem in content]
        elif runs_per_seed[p["cli_seed"]] > 1:
            digests = [canonical_digest(out) for out in p["outputs"]]
            if first_digests.setdefault(p["cli_seed"], digests) != digests:
                p["ok"] = False
                problems.append(f"pass {i}: output differs from an earlier pass with the same seed, timings removed")
    return problems


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate, measure and check one workload; returns (result, record)."""
    from tracing import LAYER_METRICS, Tracer, metric_unit
    from workloads import cli_seed, generate, write_csv

    import colindep.cli as cli

    ref_s = machine_ref_s()
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        x = generate(workload, seed)
        input_path = workdir / "input.csv"
        sha256 = write_csv(input_path, x)
        setup_s = None if trace else measure_setup_s()
        passes: list[dict] = []
        tracer = None
        start = time.perf_counter()
        if trace:
            passes.append(run_pass(cli, workload, input_path, cli_seed(workload, seed, 0), workdir, 0))
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(cli, workload, input_path, cli_seed(workload, seed, 0), workdir, 1, tracer))
            finally:
                tracer.uninstall()
        else:
            # Each pass has its own CLI seed, so the median pass averages
            # over the seed-dependent work (the bisection steps of the
            # audit's calibration, for one).  Stop at the pass boundary
            # nearest to ``seconds``: go on while half a typical pass fits.
            while True:
                k = len(passes)
                passes.append(run_pass(cli, workload, input_path, cli_seed(workload, seed, k), workdir, k))
                typical = statistics.median(p["wall_s"] for p in passes)
                if time.perf_counter() - start + typical / 2 > seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = check_passes(workload, x, passes)
        output_bytes = [sum(out.stat().st_size for out in p["outputs"] if out.exists()) for p in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory there

    failed = sum(1 for p in passes if not p["ok"])
    if trace:
        traced = passes[1]
        layer, absent = tracer.layer_metrics(passes=1)
        metrics = {name: {"value": layer[name], "unit": metric_unit(name)} for name in LAYER_METRICS}
        metrics.update(
            {
                "cli.output.bytes": {"value": output_bytes[1], "unit": "bytes"},
                "proc.cpu_s": {"value": traced["cpu_s"], "unit": "s"},
                "proc.cpu_util": {"value": traced["cpu_s"] / traced["wall_s"], "unit": "ratio"},
                "machine.ref_s": {"value": ref_s, "unit": "s"},
                "trace.overhead_ratio": {"value": traced["wall_s"] / passes[0]["wall_s"], "unit": "ratio"},
            }
        )
    else:
        absent = []
        metrics = {
            "pass_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    record = {
        "workload": workload.name,
        "seed": seed,
        "cli_seeds": [p["cli_seed"] for p in passes],
        "input": {"m": workload.m, "n": workload.n, "sha256": sha256},
        "commands": [" ".join(c) for c in workload.commands],
        "trace": trace,
        "environment": environment(),
        "machine.ref_s": ref_s,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / len(passes),
        "absent_layer_metrics": absent,
        "problems": problems,
    }
    result = {"correct": not problems, "attempted": len(passes), "failed": failed, "metrics": metrics}
    return result, record


def prepare() -> str | None:
    """Cap BLAS threads and import colindep from this checkout; an error message on failure."""
    if not (SRC / "colindep" / "cli.py").is_file():
        return f"no colindep sources under {SRC}; run from a full checkout"
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import colindep

    if SRC.resolve() not in Path(colindep.__file__).resolve().parents:
        return f"imported colindep from {colindep.__file__}, not from {SRC}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2

    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:<44}{metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_ratio':<44}{record['fail_ratio']:>16.6g} ratio ({result['failed']}/{result['attempted']} passes)")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
