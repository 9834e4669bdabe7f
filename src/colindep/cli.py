"""Command-line front end.

Subcommands: standardize, permtest, eigenratio-test, bilinear, fdr-scan,
simulate, audit.  Exit codes: 0 success, 1 usage or parse error, 2
numerical failure.  Simulated null replicates (the eigenratio nulls,
gamma calibration and ``simulate``'s block and spiked models) run on
one thread per CPU in the process's affinity mask, so ``taskset`` or a
cpuset sets their number; each replicate draws from its own substream,
so results do not depend on it.  BLAS threads are the BLAS backend's
(the usual OMP_NUM_THREADS-style variables); no other environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from ._version import __version__
from .audit import (
    AuditConfig,
    Prepared,
    audit,
    bilinear_stage,
    eigenratio_stage,
    emit,
    fdr_stage,
    perm_stage,
    prepare,
)
from .correlation import c2_from_spectrum
from .errors import (
    CalibrationFailure,
    InvalidInput,
    NonConvergence,
    NumericalError,
    ParseError,
)
from .io import ParseOptions, ingest, write_matrix
from .jsonout import write_json
from .matrix import double_standardize, spectral
from .normal import (
    SimulationSpec,
    _psd_eigenvalues,
    eigenratio,
    map_replicates,
    sample_matrix_normal,
    sample_wishart,
)

_USAGE_ERRORS = (InvalidInput, ParseError)
_NUMERICAL_ERRORS = (NonConvergence, NumericalError, CalibrationFailure, np.linalg.LinAlgError)


def _add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    if needs_input:
        p.add_argument("input", help="CSV/TSV matrix, rows = features, columns = samples")
        p.add_argument("--delimiter", default=None, help="field delimiter (default: by extension)")
        p.add_argument("--header", choices=["auto", "yes", "no"], default="auto")
        p.add_argument("--row-ids", choices=["auto", "yes", "no"], default="auto")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--tol", type=float, default=1e-8, help="standardization tolerance")
        p.add_argument("--max-iter", type=int, default=50, help="standardization sweep cap")


def _mtilde(arg: str) -> float | None:
    if arg == "auto":
        return None
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not 3.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, finite and above 3, got {arg!r}")
    return value


def _parse_groups(arg: str | None) -> tuple[int, ...] | None:
    if arg is None:
        return None
    try:
        sizes = tuple(int(tok) for tok in arg.split(","))
    except ValueError:
        raise InvalidInput(f"--groups expects comma-separated integers, got {arg!r}") from None
    if any(s < 1 for s in sizes):
        raise InvalidInput("group sizes must be positive")
    return sizes


def _load(args) -> tuple:
    opts = ParseOptions(
        delimiter=args.delimiter,
        header=args.header,
        row_ids=args.row_ids,
        group_sizes=_parse_groups(getattr(args, "groups", None)),
        groups_file=getattr(args, "groups_file", None),
    )
    return ingest(args.input, opts)


def _prepare(args, **config) -> tuple[Prepared, list[str] | None]:
    """Load and standardize the input under the audit config the subcommand implies."""
    x, labels = _load(args)
    cfg = AuditConfig(seed=args.seed, tol=args.tol, max_iter=args.max_iter, **config)
    return prepare(x, cfg), labels


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_dict(payload: dict, args) -> None:
    if args.format == "json":
        # streamed, so a scan's pair list is never held as one string
        with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as fh:
            write_json(payload, fh)
            fh.write("\n")
    else:
        lines = [f"{k}: {v}" for k, v in payload.items() if not isinstance(v, (list, dict))]
        _write_output("\n".join(lines), args.out)


def _emit_test(entry: dict, nulls: np.ndarray, args) -> int:
    if args.null_out:
        _write_csv(args.null_out, ["null_sample"], ([repr(float(v))] for v in nulls))
    _emit_dict(entry, args)
    return 0


def _cmd_standardize(args) -> int:
    ctx, _ = _prepare(args)
    if args.matrix_out:
        write_matrix(args.matrix_out, ctx.z)
    _emit_dict({"m": ctx.z.m, "n": ctx.z.n, **ctx.info.to_dict(), "matrix_out": args.matrix_out}, args)
    return 0


def _cmd_permtest(args) -> int:
    ctx, _ = _prepare(args, L=args.L, min_block=args.min_block, max_block=args.max_block)
    return _emit_test(*perm_stage(ctx, args.stat, conservative=args.conservative), args)


def _cmd_eigenratio(args) -> int:
    ctx, _ = _prepare(args, eigen_reps=args.reps, sim_m=args.sim_m, sim_blocks=args.blocks)
    return _emit_test(*eigenratio_stage(ctx, args.null, gamma=args.gamma), args)


def _cmd_bilinear(args) -> int:
    ctx, labels = _prepare(args)
    _emit_dict(bilinear_stage(ctx, labels), args)
    return 0


def _cmd_fdr_scan(args) -> int:
    null = {"corr": "correlation", "gauss": "gaussian"}[args.null]
    ctx, _ = _prepare(args, q=args.q, fdr_null=null)
    out = fdr_stage(ctx, args.mtilde, two_sided=args.two_sided)
    if args.hist_out:
        counts, edges = np.histogram(out.r, bins=args.bins, range=(-1.0, 1.0))
        rows = zip(map(repr, edges[:-1].tolist()), map(repr, edges[1:].tolist()), counts.tolist())
        _write_csv(args.hist_out, ["bin_left", "bin_right", "count"], rows)
    payload = out.to_dict(include_pairs=False)
    if args.format == "json":
        payload["pairs"] = out
    _emit_dict(payload, args)
    return 0


def _cmd_simulate(args) -> int:
    if args.out is None:
        raise InvalidInput("simulate requires --out for the draw file")
    if args.model == "wishart":
        if args.df is None:
            raise InvalidInput("--df is required for the wishart model")
        rows = []
        draws = sample_wishart(args.df, np.eye(args.n), seed=args.seed, size=args.reps)
        for k in range(args.reps):
            vals = _psd_eigenvalues(draws[k])
            c2 = float(np.sum(vals**2) / args.n**2)
            rows.append([float(vals[-1] / vals.sum()), c2, float(np.trace(draws[k]))])
    else:
        if args.model == "blocks":
            spec = SimulationSpec(
                m=args.m, n=args.n, sigma_model="block",
                num_blocks=args.blocks, gamma=args.gamma,
            )
        else:
            beta = np.full(args.n, 1.0 / np.sqrt(args.n))
            spec = SimulationSpec(
                m=args.m, n=args.n, delta_model="spiked",
                spike_lambda=getattr(args, "lambda"), spike_beta=beta,
            )

        def replicate(rng: np.random.Generator) -> list[float]:
            z, _ = double_standardize(sample_matrix_normal(spec, rng), max_iter=200)
            s = spectral(z)
            return [eigenratio(s), c2_from_spectrum(s, z.m, z.n), float(s.eigenvalues.sum() / z.m)]

        rows = map_replicates(replicate, args.reps, args.seed)
    _write_csv(args.out, ["eigenratio", "c2", "trace"], ([repr(v) for v in row] for row in rows))
    sys.stdout.write(f"wrote {len(rows)} replicates to {args.out}\n")
    return 0


def _cmd_audit(args) -> int:
    x, labels = _load(args)
    cfg = AuditConfig(
        seed=args.seed,
        L=args.L,
        eigen_reps=args.reps,
        q=args.q,
        min_block=args.min_block,
        max_block=args.max_block,
        tol=args.tol,
        max_iter=args.max_iter,
        fdr_null=args.fdr_null,
        bilinear=True if args.bilinear else None,
    )
    report = audit(x, cfg, groups=labels)
    _write_output(emit(report, format=args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colindep",
        description="Test whether the columns of a row-correlated matrix are independent.",
    )
    parser.add_argument("--version", action="version", version=f"colindep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("standardize", help="demean and doubly standardize a matrix")
    _add_common(p)
    p.add_argument("--matrix-out", default=None, help="write the standardized matrix here")
    p.set_defaults(func=_cmd_standardize)

    p = sub.add_parser("permtest", help="permutation test of column-wise i.i.d.")
    _add_common(p)
    p.add_argument("--stat", choices=["block", "trend", "trace"], required=True)
    p.add_argument("--L", type=int, default=5000, help="number of permutations")
    p.add_argument("--min-block", type=int, default=2)
    p.add_argument("--max-block", type=int, default=10)
    p.add_argument("--conservative", action="store_true", help="use (count+1)/(L+1)")
    p.add_argument("--null-out", default=None, help="dump null samples to this CSV")
    p.set_defaults(func=_cmd_permtest)

    p = sub.add_parser("eigenratio-test", help="eigenratio statistic against a simulated null")
    _add_common(p)
    p.add_argument("--null", choices=["wishart", "blocks"], default="wishart")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--gamma", type=float, default=0.0, help="block effect size for --null blocks")
    p.add_argument("--blocks", type=int, default=5)
    p.add_argument("--sim-m", type=int, default=2000)
    p.add_argument("--null-out", default=None)
    p.set_defaults(func=_cmd_eigenratio)

    p = sub.add_parser("bilinear", help="two-group bilinear statistic")
    _add_common(p)
    p.add_argument("--groups", default=None, help="comma-separated group sizes, e.g. 44,19")
    p.add_argument("--groups-file", default=None, help="file with one group label per column")
    p.set_defaults(func=_cmd_bilinear)

    p = sub.add_parser("fdr-scan", help="FDR scan of pairwise column correlations")
    _add_common(p)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--null", choices=["corr", "gauss"], default="corr")
    p.add_argument("--mtilde", type=_mtilde, default="auto", help="effective sample size, or 'auto'")
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--hist-out", default=None, help="write correlation histogram bins to CSV")
    p.add_argument("--bins", type=int, default=40)
    p.set_defaults(func=_cmd_fdr_scan)

    p = sub.add_parser("simulate", help="draw replicate statistics from a null model")
    _add_common(p, needs_input=False)
    p.add_argument("--model", choices=["wishart", "blocks", "spiked"], required=True)
    p.add_argument("--m", type=int, default=2000)
    p.add_argument("--n", type=int, default=44)
    p.add_argument("--df", type=float, default=None)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=0.0, dest="lambda")
    p.add_argument("--blocks", type=int, default=5)
    p.add_argument("--reps", type=int, default=100)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", help="run the full battery and emit a report")
    _add_common(p)
    p.add_argument("--L", type=int, default=2000)
    p.add_argument("--reps", type=int, default=200, help="eigenratio null replicates")
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--min-block", type=int, default=2)
    p.add_argument("--max-block", type=int, default=10)
    p.add_argument("--fdr-null", choices=["correlation", "gaussian"], default="correlation")
    p.add_argument("--bilinear", action="store_true", help="require the two-group test")
    p.add_argument("--groups", default=None)
    p.add_argument("--groups-file", default=None)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; this tool reserves
        # 2 for numerical failures, so remap
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
