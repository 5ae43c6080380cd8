"""Command line front end.

Four subcommands:

* ``homology SPECTRUM INDEX`` computes the homology of one space in a
  spectrum's Omega tower, as a generator table when a single parity
  applies and as bare series coefficients otherwise;
* ``catalog [SPECTRUM]`` lists the built-in spectra or prints one
  spectrum's homotopy profile;
* ``verify CHECK`` runs a named consistency check, or ``verify all``
  for the whole battery at its standard parameters;
* ``conjecture`` prints the conjectured cohomology series for a
  truncation height, or runs one of the conjecture-side checks.

Exit status: 0 on success, 1 when a verification fails, 2 for usage or
domain errors (bad spectrum names, indices outside a rule's range).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

from . import conjecture as _conjecture
from . import splitting as _splitting
from . import towers as _towers
from .catalog import (
    CATALOGUED_SPECTRA,
    SpaceRef,
    homotopy_profile,
    parse_spectrum,
)
from .algebra import GeneratorTable
from .errors import BopcalcError, InvalidParameter
from .reports import VerificationReport
from .series import TruncatedSeries

__all__ = ["build_parser", "main", "run", "CHECK_NAMES"]


# -- check registry ----------------------------------------------------------

class _CheckSpec(namedtuple("_CheckSpec", "name verifier faults",
                             defaults=(None,))):
    """One named check.  `verifier` takes one size argument, its scale
    (a degree bound for most, a level or index bound for the
    combinatorial ones), and under --inject-fault also `faults`; a
    check without faults cannot be made to fail on purpose."""

    __slots__ = ()

    @property
    def pinned_scale(self) -> int:
        """The scale the standard battery uses: the verifier's default."""
        return self.verifier.__defaults__[0]

    def run(self, scale: int, inject_fault: bool) -> VerificationReport:
        faults = self.faults if inject_fault else {}
        return self.verifier(scale, **faults)


_REGISTRY = {spec.name: spec for spec in (
    _CheckSpec("rhs-one", _splitting.verify_rhs_one, {"inject_fault": True}),
    _CheckSpec("head-induction", _splitting.verify_head_induction,
               {"inject_fault": True}),
    _CheckSpec("rational-splitting", _splitting.verify_rational_splitting),
    _CheckSpec("bo-deloopings", _towers.verify_bo_deloopings),
    _CheckSpec("bu-bo-factorization", _towers.verify_bu_bo_factorization),
    _CheckSpec("negative-tower", _towers.verify_negative_tower,
               {"corrupt_f_degree": 7}),
    _CheckSpec("bop-tower", _towers.verify_bop_tower),
    _CheckSpec("rank-rule-bss", _towers.verify_rank_rule_bss),
    _CheckSpec("irreducibility", _splitting.verify_irreducibility),
    _CheckSpec("index-bijection", _splitting.verify_index_bijection),
    _CheckSpec("bpn-rank-recursion", _splitting.verify_bpn_rank_recursion),
    _CheckSpec("bop6-splitting", _splitting.verify_bop6_homotopy_splitting),
    _CheckSpec("epsilon-partition", _conjecture.verify_epsilon_partition),
    _CheckSpec("conjecture-limit", _conjecture.verify_stable_limit),
    _CheckSpec("first-appearance", _conjecture.verify_first_appearance),
    _CheckSpec("squares", _conjecture.verify_square_decompositions),
    _CheckSpec("conjecture-shape", _conjecture.verify_conjecture_shape),
)}
CHECK_NAMES = tuple(_REGISTRY)
_FAULT_CHECKS = tuple(name for name, spec in _REGISTRY.items()
                      if spec.faults)

_CONJECTURE_CHECKS = {
    "limit": "conjecture-limit",
    "epsilon": "epsilon-partition",
    "first-appearance": "first-appearance",
    "squares": "squares",
    "shape": "conjecture-shape",
}


# -- output helpers ----------------------------------------------------------

def _emit(text: str, args) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n" if text else "")
        except OSError as exc:
            raise InvalidParameter(
                f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left (`| head`): drop the rest of the output so
            # the exit-time flush cannot fail, and keep the exit status
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _note(message: str, args) -> None:
    if not args.quiet:
        print(f"note: {message}", file=sys.stderr)


def _csv_text(header: Sequence[str], rows) -> str:
    # Imported here: most runs print JSON or text, and csv is start-up
    # time every process would otherwise pay.
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _series_lines(series: TruncatedSeries, label: str) -> List[str]:
    lines = [f"{'degree':>8}  {label}"]
    for d, c in series.csv_rows():
        if c:
            lines.append(f"{d:>8}  {c}")
    if len(lines) == 1:
        lines.append("  (all coefficients are 0)")
    return lines


def _table_lines(table: GeneratorTable) -> List[str]:
    lines = [
        f"kind: {table.kind}",
        f"component_rank: {table.component_rank}",
        f"max_degree: {table.truncation}",
        f"{'degree':>8}  count",
    ]
    for d, c in table.csv_rows():
        lines.append(f"{d:>8}  {c}")
    if not table.counts:
        lines.append("  (no generators)")
    return lines


# -- subcommands -------------------------------------------------------------

def _cmd_homology(args) -> int:
    spectrum = parse_spectrum(args.spectrum)
    n = args.max_degree
    notes: List[str] = []

    if args.periodic and spectrum.tag != "bo":
        raise InvalidParameter("--periodic only applies to bo")

    periodic = args.periodic
    if spectrum.tag == "bo" and args.index >= 8 and not periodic:
        periodic = True
        notes.append(
            f"space {args.index} of bo lies outside the connective "
            "range; returning the periodic table")
    res = _towers.space_homology(SpaceRef(spectrum, args.index), n, periodic)
    if res.table is None:
        notes.append("generators of both parities; only the series is printed")

    for message in notes:
        _note(message, args)
    table = res.table
    if args.format == "json":
        doc = {
            "command": "homology",
            "spectrum": str(spectrum),
            "index": args.index,
            "max_degree": n,
            "provenance": res.provenance,
            "table": table.to_json() if table is not None else None,
            "series": res.series.to_json(),
            "notes": notes,
        }
        _emit(json.dumps(doc, indent=2), args)
    elif args.format == "csv":
        label = "count" if table is not None else "coefficient"
        rows = (table if table is not None else res.series).csv_rows()
        _emit(_csv_text(("degree", label), rows), args)
    else:
        head = [f"space: {spectrum}_{args.index}",
                f"provenance: {res.provenance}"]
        if table is not None:
            body = _table_lines(table)
        else:
            body = [f"max_degree: {n}",
                    *_series_lines(res.series, "coefficient")]
        _emit("\n".join(head + body), args)
    return 0


def _cmd_catalog(args) -> int:
    if args.spectrum is None:
        names = [str(s) for s in CATALOGUED_SPECTRA]
        if args.format == "json":
            _emit(json.dumps({"command": "catalog", "spectra": names},
                             indent=2), args)
        elif args.format == "csv":
            _emit(_csv_text(("spectrum",), ((n,) for n in names)), args)
        else:
            _emit("\n".join(names), args)
        return 0

    spectrum = parse_spectrum(args.spectrum)
    profile = homotopy_profile(spectrum, args.max_degree)
    if args.format == "json":
        doc = {
            "command": "catalog",
            "max_degree": args.max_degree,
            "profile": profile.to_json(),
        }
        _emit(json.dumps(doc, indent=2), args)
    elif args.format == "csv":
        _emit(_csv_text(("spectrum", "degree", "free_rank", "torsion_z2"),
                        profile.csv_rows()), args)
    else:
        lines = [f"spectrum: {spectrum}",
                 f"{'degree':>8}  free_rank  torsion_z2"]
        for _, d, free, torsion in profile.csv_rows():
            if free or torsion:
                lines.append(f"{d:>8}  {free:>9}  {torsion:>10}")
        _emit("\n".join(lines), args)
    return 0


def _run_reports(reports: List[VerificationReport], args) -> int:
    passed = all(r.passed for r in reports)
    if args.format == "json":
        if len(reports) == 1:
            doc = {"command": "verify", "report": reports[0].to_json()}
        else:
            doc = {"command": "verify", "pass": passed,
                   "reports": [r.to_json() for r in reports]}
        _emit(json.dumps(doc, indent=2), args)
    elif args.format == "csv":
        rows = [(r.check, "pass" if r.passed else "fail",
                 "" if r.first_failure_degree is None
                 else r.first_failure_degree,
                 round(r.elapsed_ms, 3))
                for r in reports]
        _emit(_csv_text(("check", "result", "first_failure_degree",
                         "elapsed_ms"), rows), args)
    else:
        lines = [r.one_line() for r in reports
                 if not (args.quiet and r.passed)]
        if lines or args.output:  # leave no earlier run's file behind
            _emit("\n".join(lines), args)
    return 0 if passed else 1


def _single_scale(spec: _CheckSpec, args) -> int:
    """Scale for a check run on its own: -N if given, else pinned."""
    return args.max_degree if args.max_degree_given else spec.pinned_scale


def _cmd_verify(args) -> int:
    if args.check == "all":
        if args.inject_fault:
            raise InvalidParameter(
                "--inject-fault needs a single check, not 'all'")
        reports = []
        for spec in _REGISTRY.values():
            scale = spec.pinned_scale
            if args.max_degree_given:
                scale = min(scale, args.max_degree)
            reports.append(spec.run(scale, False))
        return _run_reports(reports, args)

    spec = _REGISTRY[args.check]
    if args.inject_fault and not spec.faults:
        raise InvalidParameter(
            f"check {spec.name!r} has no fault to inject; pick one of "
            + ", ".join(_FAULT_CHECKS))
    report = spec.run(_single_scale(spec, args), args.inject_fault)
    return _run_reports([report], args)


def _cmd_conjecture(args) -> int:
    if args.check is not None:
        if args.height is not None:
            raise InvalidParameter(
                "give either a truncation height or --check, not both")
        spec = _REGISTRY[_CONJECTURE_CHECKS[args.check]]
        return _run_reports([spec.run(_single_scale(spec, args), False)],
                            args)

    if args.height is None:
        raise InvalidParameter("need a truncation height or --check")
    series = _conjecture.conjectured_bopn_cohomology(args.height,
                                                     args.max_degree)
    if args.format == "json":
        doc = {
            "command": "conjecture",
            "height": args.height,
            "max_degree": args.max_degree,
            "series": series.to_json(),
        }
        _emit(json.dumps(doc, indent=2), args)
    elif args.format == "csv":
        _emit(_csv_text(("degree", "coefficient"), series.csv_rows()), args)
    else:
        lines = [f"height: {args.height}"]
        lines += _series_lines(series, "dimension")
        _emit("\n".join(lines), args)
    return 0


# -- parser ------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_options(parser: argparse.ArgumentParser, max_degree: str) -> None:
    """The options every subcommand takes; `max_degree` is the -N help,
    which says what -N bounds under that subcommand."""
    parser.add_argument("--max-degree", "-N", type=_nonnegative,
                        default=argparse.SUPPRESS, metavar="N",
                        help=max_degree)
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the result to FILE instead of stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress notes and passing check lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bopcalc",
        description="Homology and homotopy bookkeeping for the BoP "
                    "Omega spectrum and its relatives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser(
        "homology",
        help="homology of one space in a spectrum's Omega tower")
    _add_options(p_hom, "degree bound for the series and tables "
                        "(default 256)")
    p_hom.add_argument("spectrum",
                       help="BP, BPbar, BPn:k, bu, bo, BoP, F, or X")
    p_hom.add_argument("index", type=int, help="space index, may be negative")
    p_hom.add_argument("--periodic", action="store_true",
                       help="for bo: use the periodic table in the range "
                            "where the connective one differs")
    p_hom.set_defaults(func=_cmd_homology)

    p_cat = sub.add_parser(
        "catalog",
        help="list catalogued spectra or print one homotopy profile")
    _add_options(p_cat, "degree bound for the homotopy profile "
                        "(default 256)")
    p_cat.add_argument("spectrum", nargs="?",
                       help="spectrum name; omit to list all")
    p_cat.set_defaults(func=_cmd_catalog)

    p_ver = sub.add_parser(
        "verify",
        help="run one named consistency check, or all of them")
    _add_options(p_ver, "the check's scale, by default its pinned one: "
                        "a degree bound, except a level bound for "
                        "irreducibility, a height bound for "
                        "epsilon-partition and an index bound for "
                        "index-bijection, first-appearance and squares; "
                        "under 'all', a cap on each pinned scale")
    p_ver.add_argument("check", choices=CHECK_NAMES + ("all",),
                       metavar="CHECK",
                       help="one of: " + ", ".join(CHECK_NAMES + ("all",)))
    p_ver.add_argument("--inject-fault", action="store_true",
                       help="corrupt the computation on purpose; a run "
                            "whose -N reaches the fault's first failing degree "
                            "(rhs-one: 8, head-induction: 8, negative-tower: "
                            "1) fails there, and one below it passes")
    p_ver.set_defaults(func=_cmd_verify)

    p_con = sub.add_parser(
        "conjecture",
        help="conjectured cohomology series for a truncation height, "
             "or one of the conjecture-side checks")
    _add_options(p_con, "degree bound for the series (default 256); "
                        "with --check, the check's scale as under "
                        "verify, by default its pinned one")
    p_con.add_argument("height", nargs="?", type=int,
                       help="truncation height n > 2")
    p_con.add_argument("--check", choices=tuple(_CONJECTURE_CHECKS),
                       help="run a check instead of printing a series")
    p_con.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.max_degree_given = hasattr(args, "max_degree")
    if not args.max_degree_given:
        args.max_degree = 256
    try:
        return args.func(args)
    except BopcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv: Optional[Sequence[str]] = None) -> None:
    """The process entry point: main(), then flush both streams and
    leave through os._exit with its status, skipping interpreter
    teardown, which a short run would otherwise spend a tenth of its
    time on.  Nothing is lost: bopcalc registers no atexit handler and
    --output closes its file before main() returns.  A usage error
    (argparse's SystemExit) still takes the normal exit."""
    status = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:  # the reader left; keep the status
            pass
    os._exit(status)


if __name__ == "__main__":
    run()
