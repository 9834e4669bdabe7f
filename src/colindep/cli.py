"""Command-line front end.

Subcommands: standardize, permtest, eigenratio-test, bilinear, fdr-scan,
simulate, audit.  Exit codes: 0 success, 1 usage or parse error, 2
numerical failure; an invalid setting exits 1 before any stage runs.
Each option that sets an ``AuditConfig`` field parses into that field
and is left unset unless given, so the config holds the one default;
two subcommand defaults differ from it, ``permtest --L`` (5000) and
``eigenratio-test --reps`` (100).  ``main`` writes each subcommand's
report once, to ``--out`` or stdout: text, or JSON streamed through
``jsonout.write_json`` so no pair list is held as one string.
``simulate`` writes each replicate of an eigenratio null (Wishart for
``--model wishart``, correlated rows for ``blocks`` and ``spiked``) with
its c2 and trace, and rejects the options of the other models.
Simulated null replicates run on one thread per CPU in the process's
affinity mask (see ``normal.map_replicates``), and results do not
depend on their number.  BLAS threads are the BLAS backend's
(OMP_NUM_THREADS and the like); no other environment variables are read.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from contextlib import nullcontext
from dataclasses import fields

import numpy as np

from ._version import __version__
from .audit import (
    AuditConfig,
    AuditReport,
    Prepared,
    audit,
    bilinear_stage,
    eigenratio_stage,
    emit,
    fdr_stage,
    perm_stage,
    prepare,
)
from .errors import CalibrationFailure, InvalidInput, NonConvergence, NumericalError, ParseError
from .fdr import OutlierReport
from .io import ParseOptions, ingest, write_matrix
from .jsonout import write_json
from .matrix import DataMatrix
from .normal import SimulationSpec, _null_draws
from .permutation import _STATISTICS

_USAGE_ERRORS = (InvalidInput, ParseError)
_NUMERICAL_ERRORS = (NonConvergence, NumericalError, CalibrationFailure, np.linalg.LinAlgError)

#: the AuditConfig fields an option may set
_SETTINGS = frozenset(f.name for f in fields(AuditConfig) if f.init)
#: the options each simulate model reads, with their defaults
_SIMULATE_OPTIONS = {"wishart": {"df": None},
                     "blocks": {"m": AuditConfig.sim_m, "gamma": 0.0, "blocks": AuditConfig.sim_blocks},
                     "spiked": {"m": AuditConfig.sim_m, "lambda": 0.0}}


def _arg_type(convert, ok, expected: str):
    """An argparse type: ``convert(arg)``, a usage error unless ``ok`` accepts it."""

    def parse(arg: str):
        try:
            value = convert(arg)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {arg!r}")
        return value

    return parse


#: ``--groups``: comma-separated group sizes, each checked by ``ParseOptions``
_group_sizes = _arg_type(lambda arg: tuple(map(int, arg.split(","))), bool, "comma-separated integers")


def _setting(p: argparse.ArgumentParser, flag: str, field: str, text: str, **kw) -> None:
    """Option ``flag`` for ``AuditConfig.<field>``, unset unless given.

    Its help shows the subcommand's ``set_defaults`` value, made before it, or the config's.
    """
    default = p.get_default(field)
    default = getattr(AuditConfig, field) if default is None else default
    if "choices" not in kw:
        kw.setdefault("metavar", flag.lstrip("-").upper().replace("-", "_"))
    p.add_argument(flag, dest=field, default=argparse.SUPPRESS, help=f"{text} (default: {default})", **kw)


def _add_common(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    _setting(p, "--seed", "seed", "master RNG seed",
             type=_arg_type(int, lambda v: v >= 0, "an integer of at least 0"))
    # only simulate takes no input; its --out is the draw file
    out_help = ("write the report here instead of stdout" if needs_input
                else "write the draws here as CSV (required); the summary line goes to stdout")
    p.add_argument("--out", default=None, help=out_help)
    if needs_input:
        p.add_argument("input", help="CSV/TSV matrix, rows = features, columns = samples")
        p.add_argument("--delimiter", default=None,
                       help="one-character field delimiter (default: tab for .tsv and .tab, else comma)")
        p.add_argument("--header", choices=["auto", "yes", "no"], default="auto")
        p.add_argument("--row-ids", choices=["auto", "yes", "no"], default="auto")
        p.add_argument("--format", choices=["json", "text"], default="json")
        _setting(p, "--tol", "tol", "standardization tolerance", type=float)
        _setting(p, "--max-iter", "max_iter", "standardization sweep cap", type=int)


def _config(args) -> AuditConfig:
    """The audit config of exactly the settings ``args`` holds; the rest keep their defaults."""
    return AuditConfig(**{k: v for k, v in vars(args).items() if k in _SETTINGS})


def _load(args) -> tuple[DataMatrix, list[str] | None, AuditConfig]:
    """The input, its group labels and the audit config the subcommand implies.

    The input is marked scratch, so ``prepare`` demeans and standardizes
    it in its own values: the parsed array is the call's one m-by-n
    copy, and nothing reads the raw values after ``prepare``.
    """
    opts = ParseOptions(
        delimiter=args.delimiter,
        header=args.header,
        row_ids=args.row_ids,
        group_sizes=getattr(args, "groups", None),
        groups_file=getattr(args, "groups_file", None),
    )
    cfg = _config(args)
    x, labels = ingest(args.input, opts)
    return x._scratch(), labels, cfg


def _prepare(args) -> tuple[Prepared, list[str] | None]:
    """Load and standardize the input under the subcommand's audit config."""
    x, labels, cfg = _load(args)
    return prepare(x, cfg), labels


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(report, fmt: str, out: str | None) -> None:
    """Write a payload dict, an ``AuditReport`` or a line of text to ``out`` or stdout.

    Text is ``emit``'s table for an audit and ``key: value`` lines of a payload's scalars.
    """
    if isinstance(report, AuditReport):
        report = report._json_payload() if fmt == "json" else emit(report, format="text")
    elif isinstance(report, dict) and fmt == "text":
        lines = [f"{k}: {v}" for k, v in report.items() if not isinstance(v, (list, dict, OutlierReport))]
        report = "\n".join(lines)
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        if isinstance(report, str):
            fh.write(report if report.endswith("\n") else report + "\n")
        else:
            write_json(report, fh)
            fh.write("\n")


def _with_nulls(stage: tuple[dict, np.ndarray], path: str | None) -> dict:
    """A test stage's report entry, after writing its null sample to ``path`` if given."""
    entry, nulls = stage
    if path:
        _write_csv(path, ["null_sample"], ([repr(float(v))] for v in nulls))
    return entry


def _cmd_standardize(args) -> dict:
    ctx, _ = _prepare(args)
    if args.matrix_out:
        write_matrix(args.matrix_out, ctx.z)
    return {"m": ctx.z.m, "n": ctx.z.n, **ctx.info.to_dict(), "matrix_out": args.matrix_out}


def _cmd_permtest(args) -> dict:
    ctx, _ = _prepare(args)
    return _with_nulls(perm_stage(ctx, args.stat, conservative=args.conservative), args.null_out)


def _cmd_eigenratio(args) -> dict:
    ctx, _ = _prepare(args)
    return _with_nulls(eigenratio_stage(ctx, args.null, gamma=args.gamma), args.null_out)


def _cmd_bilinear(args) -> dict:
    ctx, labels = _prepare(args)
    return bilinear_stage(ctx, labels)


def _cmd_fdr_scan(args) -> dict:
    ctx, _ = _prepare(args)
    out = fdr_stage(ctx, args.mtilde, two_sided=args.two_sided)
    if args.hist_out:
        counts, edges = np.histogram(out.r, bins=args.bins, range=(-1.0, 1.0))
        rows = zip(map(repr, edges[:-1].tolist()), map(repr, edges[1:].tolist()), counts.tolist())
        _write_csv(args.hist_out, ["bin_left", "bin_right", "count"], rows)
    return {**out.to_dict(include_pairs=False), "pairs": out}


def _cmd_simulate(args) -> str:
    if args.out is None:
        raise InvalidInput("simulate requires --out for the draw file")
    opt = dict(_SIMULATE_OPTIONS[args.model])
    for name in ("m", "df", "gamma", "lambda", "blocks"):
        if getattr(args, name) is not None:
            if name not in opt:
                raise InvalidInput(f"--model {args.model} does not read --{name}")
            opt[name] = getattr(args, name)
    seed = _config(args).seed
    if args.model == "wishart":
        draws = _null_draws("wishart", args.reps, args.n, seed, df=opt["df"])
    else:
        if args.model == "blocks":
            spec = SimulationSpec(m=opt["m"], n=args.n, sigma_model="block", num_blocks=opt["blocks"],
                                  gamma=opt["gamma"])
        else:
            spec = SimulationSpec(m=opt["m"], n=args.n, delta_model="spiked", spike_lambda=opt["lambda"],
                                  spike_beta=np.full(args.n, 1.0 / np.sqrt(args.n)))
        draws = _null_draws("correlated_rows", args.reps, args.n, seed, spec=spec)
    _write_csv(args.out, ["eigenratio", "c2", "trace"], ([repr(v) for v in row] for row in draws.tolist()))
    return f"wrote {len(draws)} replicates to {args.out}"


def _cmd_audit(args) -> AuditReport:
    x, labels, cfg = _load(args)
    return audit(x, cfg, groups=labels)


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
    p.set_defaults(func=_cmd_permtest, L=5000)
    _add_common(p)
    p.add_argument("--stat", choices=_STATISTICS, required=True)
    _setting(p, "--L", "L", "number of permutations", type=int)
    _setting(p, "--min-block", "min_block", "shortest block run", type=int)
    _setting(p, "--max-block", "max_block", "longest block run", type=int)
    p.add_argument("--conservative", action="store_true", help="use (count+1)/(L+1)")
    p.add_argument("--null-out", default=None, help="dump null samples to this CSV")

    p = sub.add_parser("eigenratio-test", help="eigenratio statistic against a simulated null")
    p.set_defaults(func=_cmd_eigenratio, eigen_reps=100)
    _add_common(p)
    p.add_argument("--null", choices=["wishart", "blocks"], default="wishart")
    _setting(p, "--reps", "eigen_reps",
             "most null replicates: draws stop at the ceil(REPS/20)-th that reaches the statistic", type=int)
    p.add_argument("--gamma", type=float, default=None,
                   help="block effect size for --null blocks (default: calibrated as in audit)")
    _setting(p, "--blocks", "sim_blocks", "row blocks of the blocks null", type=int)
    _setting(p, "--sim-m", "sim_m", "rows per draw of the blocks null", type=int)
    p.add_argument("--null-out", default=None, help="dump the L null draws taken to this CSV")

    p = sub.add_parser("bilinear", help="two-group bilinear statistic")
    _add_common(p)
    p.add_argument("--groups", type=_group_sizes, default=None, help="comma-separated group sizes, e.g. 44,19")
    p.add_argument("--groups-file", default=None, help="file with one group label per column (not with --groups)")
    p.set_defaults(func=_cmd_bilinear)

    p = sub.add_parser("fdr-scan", help="FDR scan of pairwise column correlations")
    _add_common(p)
    _setting(p, "--q", "q", "FDR level", type=float)
    null = _arg_type({"corr": "correlation", "gauss": "gaussian"}.get, bool, "'corr' or 'gauss'")
    _setting(p, "--null", "fdr_null", "corr or gauss null model", type=null, metavar="{corr,gauss}")
    mtilde = _arg_type(lambda a: None if a == "auto" else float(a), lambda v: v is None or 3.0 < v < math.inf,
                       "'auto' or a number, finite and above 3")
    p.add_argument("--mtilde", type=mtilde, default="auto", help="effective sample size, or 'auto'")
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--hist-out", default=None, help="write correlation histogram bins to CSV")
    p.add_argument("--bins", type=_arg_type(int, lambda v: v >= 1, "an integer of at least 1"), default=40,
                   help="histogram bins")
    p.set_defaults(func=_cmd_fdr_scan)

    p = sub.add_parser("simulate", help="draw replicate statistics from a null model")
    _add_common(p, needs_input=False)
    p.add_argument("--model", choices=["wishart", "blocks", "spiked"], required=True)
    p.add_argument("--m", type=int, help=f"rows per draw (blocks, spiked; default {AuditConfig.sim_m})")
    p.add_argument("--n", type=int, default=44)
    p.add_argument("--df", type=float, default=None, help="degrees of freedom (wishart; required)")
    p.add_argument("--gamma", type=float, default=None, help="block effect size (blocks; default 0)")
    p.add_argument("--lambda", type=float, default=None, dest="lambda", help="spike size (spiked; default 0)")
    p.add_argument("--blocks", type=int, help=f"row blocks (blocks; default {AuditConfig.sim_blocks})")
    p.add_argument("--reps", type=int, default=100)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", help="run the full battery and emit a report")
    _add_common(p)
    _setting(p, "--L", "L", "number of permutations per permutation test", type=int)
    _setting(p, "--reps", "eigen_reps",
             "most eigenratio null replicates, stopping at the ceil(REPS/20)-th that reaches the statistic",
             type=int)
    _setting(p, "--q", "q", "FDR level of the scan", type=float)
    _setting(p, "--min-block", "min_block", "shortest block run", type=int)
    _setting(p, "--max-block", "max_block", "longest block run", type=int)
    _setting(p, "--fdr-null", "fdr_null", "null model of the FDR scan", choices=["correlation", "gaussian"])
    p.add_argument("--bilinear", action="store_true", default=argparse.SUPPRESS,
                   help="require the two-group test")
    p.add_argument("--groups", type=_group_sizes, default=None)
    p.add_argument("--groups-file", default=None)
    p.set_defaults(func=_cmd_audit)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: each build leaves argparse's formatters and
    # actions as cyclic garbage, and parsing does not change the parser
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; this tool reserves
        # 2 for numerical failures, so remap
        return 1 if exc.code == 2 else int(exc.code or 0)
    # simulate's --out names its draw file, so its summary line goes to stdout
    fmt, out = ("text", None) if args.command == "simulate" else (args.format, args.out)
    try:
        _write_report(args.func(args), fmt, out)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
