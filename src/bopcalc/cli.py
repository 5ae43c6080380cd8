"""Command line front end.

Four subcommands:

* ``homology SPECTRUM INDEX`` computes the homology of one space in a
  spectrum's Omega tower, as a generator table when a single parity
  applies and as bare series coefficients otherwise;
* ``catalog [SPECTRUM]`` lists the built-in spectra or prints one
  spectrum's homotopy profile;
* ``verify CHECK`` runs a named consistency check, or ``verify all``
  for the whole battery at its standard parameters;
* ``conjecture HEIGHT`` prints the conjectured cohomology series for
  a truncation height.

Exit status: 0 on success, 1 when a verification fails, 2 for usage or
domain errors (bad spectrum names, indices outside a rule's range) and
when a command runs out of memory.

The grammar is one table, `_GRAMMAR`.  A valid command is parsed from
it directly and writes its JSON through `_json_chunks`, so it imports
neither argparse nor json, which would cost a short process several
milliseconds of start-up.  Help and usage errors go through argparse:
`build_parser` builds its parser from the same table, so the help text
and every error message are argparse's own.

This is the one module that knows the output formats: the value classes
carry no serializers.  Output is streamed: `_emit` writes each piece, a
JSON array item or a line of CSV or text, as it is made, so a command
holds one row of its output at a time, never the whole document.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import chain
from math import isfinite
from types import SimpleNamespace

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


# -- output helpers ----------------------------------------------------------

def _emit(pieces, args) -> None:
    """Write the output that `pieces` make up, newline included, each
    piece as it is made: to the --output file, which no pieces leave
    empty, or to stdout, where no pieces print an empty line.  A command
    runs whatever can raise before it calls this; the pieces only
    format."""
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InvalidParameter(
                f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        pieces = iter(pieces)
        try:
            sys.stdout.write(next(pieces, "\n"))
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (`| head`): drop the rest of the output so
            # the exit-time flush cannot fail, and keep the exit status
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_json(doc, args) -> None:
    _emit(chain(_json_chunks(doc), "\n"), args)


def _note(message: str, args) -> None:
    if not args.quiet:
        print(f"note: {message}", file=sys.stderr)


def _csv_lines(header: Sequence[str], rows) -> Iterator[str]:
    """The lines csv.writer(lineterminator="\n") writes for a header and
    rows whose fields are ints, rounded floats, names with no comma,
    quote or newline, and "" beside other fields, as every row a command
    prints is: for those, a plain join of the fields is what it writes."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json_chunks(doc, pad: str = "\n") -> Iterator[str]:
    """``json.dumps(doc, indent=2)``, byte for byte, in pieces: one per
    array item and one per dict key.  A document holds dicts with str
    keys; lists, tuples and iterators, each written as an array; str,
    int, float, bool and None.  Anything else raises TypeError."""
    inner = pad + "  "
    if isinstance(doc, dict):
        sep = "{" + inner
        for key, value in doc.items():
            if not isinstance(key, str):
                raise TypeError("keys must be str")
            head = sep + _json_scalar(key) + ": "
            text = _json_scalar(value)
            if text is None:
                yield head
                yield from _json_chunks(value, inner)
            else:
                yield head + text
            sep = "," + inner
        yield "{}" if sep[0] == "{" else pad + "}"
    elif isinstance(doc, (list, tuple)) or hasattr(doc, "__next__"):
        sep = "[" + inner
        for item in doc:
            text = _json_scalar(item)
            yield sep + (text if text is not None
                         else "".join(_json_chunks(item, inner)))
            sep = "," + inner
        yield "[]" if sep[0] == "[" else pad + "]"
    else:
        text = _json_scalar(doc)
        if text is None:
            raise TypeError(f"Object of type {type(doc).__name__} "
                            "is not JSON serializable")
        yield text


def _json_scalar(doc) -> Optional[str]:
    """The JSON text of a str, int, float, bool or None, else None.  json
    itself, start-up time every process would otherwise pay, is imported
    only for a string that needs escaping or a float that is not
    finite."""
    if isinstance(doc, str):
        if (doc.isascii() and doc.isprintable()
                and '"' not in doc and "\\" not in doc):
            return '"' + doc + '"'
    elif doc is None or doc is True or doc is False:
        return "null" if doc is None else "true" if doc else "false"
    elif isinstance(doc, int):
        return int.__repr__(doc)
    elif isinstance(doc, float):
        if isfinite(doc):
            return float.__repr__(doc)
    else:
        return None
    import json
    return json.dumps(doc)


def _series_json(series: TruncatedSeries) -> dict:
    """Its coefficients as decimal strings, an iterator of them."""
    return {"truncation": series.truncation,
            "coefficients": map(str, series.coefficients)}


def _table_json(table: GeneratorTable) -> dict:
    """Its generator rows in degree order, an iterator of them."""
    return {
        "kind": table.kind,
        "component_rank": table.component_rank,
        "generators": ({"degree": d, "count": c}
                       for d, c in sorted(table.counts.items())),
        "truncation": table.truncation,
    }


def _report_json(report: VerificationReport) -> dict:
    out = {
        "check": report.check,
        "parameters": dict(report.parameters),
        "pass": report.passed,
        "elapsed_ms": round(report.elapsed_ms, 3),
    }
    if report.first_failure_degree is not None:
        out["first_failure_degree"] = report.first_failure_degree
    if report.detail:
        out["detail"] = dict(report.detail)
    return out


def _report_line(report: VerificationReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    where = ("" if report.first_failure_degree is None
             else f" first_failure_degree={report.first_failure_degree}")
    return f"{status} {report.check}{where} ({report.elapsed_ms:.1f} ms)"


def _series_lines(series: TruncatedSeries, label: str) -> Iterator[str]:
    yield f"{'degree':>8}  {label}\n"
    for d, c in enumerate(series.coefficients):
        if c:
            yield f"{d:>8}  {c}\n"
    if not any(series.coefficients):
        yield "  (all coefficients are 0)\n"


def _table_lines(table: GeneratorTable) -> Iterator[str]:
    yield f"kind: {table.kind}\n"
    yield f"component_rank: {table.component_rank}\n"
    yield f"max_degree: {table.truncation}\n"
    yield f"{'degree':>8}  count\n"
    for d, c in sorted(table.counts.items()):
        yield f"{d:>8}  {c}\n"
    if not table.counts:
        yield "  (no generators)\n"


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
    table = res.table
    if table is None:
        notes.append("generators of both parities; only the series is printed")

    for message in notes:
        _note(message, args)
    # res.series runs an Euler pass on each read: read it once, and only
    # where it is printed
    if args.format == "json":
        _emit_json({
            "command": "homology",
            "spectrum": str(spectrum),
            "index": args.index,
            "max_degree": n,
            "provenance": res.provenance,
            "table": _table_json(table) if table is not None else None,
            "series": _series_json(res.series),
            "notes": notes,
        }, args)
    elif args.format == "csv":
        label = "count" if table is not None else "coefficient"
        rows = (sorted(table.counts.items()) if table is not None
                else enumerate(res.series.coefficients))
        _emit(_csv_lines(("degree", label), rows), args)
    else:
        head = (f"space: {spectrum}_{args.index}\n",
                f"provenance: {res.provenance}\n")
        if table is not None:
            body = _table_lines(table)
        else:
            body = chain((f"max_degree: {n}\n",),
                         _series_lines(res.series, "coefficient"))
        _emit(chain(head, body), args)
    return 0


def _cmd_catalog(args) -> int:
    if args.spectrum is None:
        names = [str(s) for s in CATALOGUED_SPECTRA]
        if args.format == "json":
            _emit_json({"command": "catalog", "spectra": names}, args)
        elif args.format == "csv":
            _emit(_csv_lines(("spectrum",), ((n,) for n in names)), args)
        else:
            _emit((name + "\n" for name in names), args)
        return 0

    spectrum = parse_spectrum(args.spectrum)
    profile = homotopy_profile(spectrum, args.max_degree)
    rows = ((d, free, profile.torsion_z2.get(d, 0))
            for d, free in enumerate(profile.free_ranks.coefficients))
    if args.format == "json":
        _emit_json({
            "command": "catalog",
            "max_degree": args.max_degree,
            "profile": {
                "spectrum": str(spectrum),
                "free_ranks": _series_json(profile.free_ranks),
                "torsion_z2": ({"degree": d, "count": c}
                               for d, c in sorted(profile.torsion_z2.items())),
            },
        }, args)
    elif args.format == "csv":
        _emit(_csv_lines(("spectrum", "degree", "free_rank", "torsion_z2"),
                         ((str(spectrum), *row) for row in rows)), args)
    else:
        head = (f"spectrum: {spectrum}\n",
                f"{'degree':>8}  free_rank  torsion_z2\n")
        rows = (f"{d:>8}  {free:>9}  {torsion:>10}\n"
                for d, free, torsion in rows if free or torsion)
        _emit(chain(head, rows), args)
    return 0


def _run_reports(reports: List[VerificationReport], args) -> int:
    passed = all(r.passed for r in reports)
    if args.format == "json":
        if len(reports) == 1:
            doc = {"command": "verify", "report": _report_json(reports[0])}
        else:
            doc = {"command": "verify", "pass": passed,
                   "reports": [_report_json(r) for r in reports]}
        _emit_json(doc, args)
    elif args.format == "csv":
        rows = ((r.check, "pass" if r.passed else "fail",
                 "" if r.first_failure_degree is None
                 else r.first_failure_degree,
                 round(r.elapsed_ms, 3))
                for r in reports)
        _emit(_csv_lines(("check", "result", "first_failure_degree",
                          "elapsed_ms"), rows), args)
    else:
        lines = [_report_line(r) + "\n" for r in reports
                 if not (args.quiet and r.passed)]
        if lines or args.output is not None:  # leave no stale file behind
            _emit(lines, args)
    return 0 if passed else 1


def _cmd_verify(args) -> int:
    n = args.max_degree  # None: each check at its pinned scale
    if args.check == "all":
        if args.inject_fault:
            raise InvalidParameter(
                "--inject-fault needs a single check, not 'all'")
        reports = [spec.run(spec.pinned_scale if n is None
                            else min(spec.pinned_scale, n), False)
                   for spec in _REGISTRY.values()]
        return _run_reports(reports, args)

    spec = _REGISTRY[args.check]
    if args.inject_fault and not spec.faults:
        raise InvalidParameter(
            f"check {spec.name!r} has no fault to inject; pick one of "
            + ", ".join(_FAULT_CHECKS))
    report = spec.run(spec.pinned_scale if n is None else n,
                      args.inject_fault)
    return _run_reports([report], args)


def _cmd_conjecture(args) -> int:
    series = _conjecture.conjectured_bopn_cohomology(args.height,
                                                     args.max_degree)
    if args.format == "json":
        _emit_json({
            "command": "conjecture",
            "height": args.height,
            "max_degree": args.max_degree,
            "series": _series_json(series),
        }, args)
    elif args.format == "csv":
        _emit(_csv_lines(("degree", "coefficient"),
                         enumerate(series.coefficients)), args)
    else:
        _emit(chain((f"height: {args.height}\n",),
                    _series_lines(series, "dimension")), args)
    return 0


# -- grammar -----------------------------------------------------------------
#
# The command line in one table: per subcommand its handler, its help
# and its arguments in add_argument order, each as (flags, add_argument
# keywords).  `_parse` reads a valid argv from the table without
# argparse; `build_parser` builds the argparse parser from it, which
# main() needs only for what `_parse` declines: help and usage errors.


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"
    else:
        if value >= 0:
            return value
        message = "must be >= 0"
    import argparse  # argparse reports a bad value anyway
    raise argparse.ArgumentTypeError(message)


def _options(max_degree: str, default: Optional[int] = 256) -> list:
    """The options every subcommand takes; `max_degree` is the -N help,
    which says what -N bounds under that subcommand, and `default` is
    -N's default: None under verify, where no -N means pinned scales."""
    return [
        (("--max-degree", "-N"), dict(type=_nonnegative, default=default,
                                      metavar="N", help=max_degree)),
        (("--format",), dict(choices=("table", "json", "csv"),
                             default="table", help="output format")),
        (("--output",), dict(metavar="FILE", help="write the result to FILE "
                                                  "instead of stdout")),
        (("--quiet",), dict(action="store_true",
                            help="suppress notes and passing check lines")),
    ]


_GRAMMAR = {
    "homology": (_cmd_homology,
                 "homology of one space in a spectrum's Omega tower", [
        *_options("degree bound for the series and tables (default 256)"),
        (("spectrum",), dict(help="BP, BPbar, BPn:k, bu, bo, BoP, F, or X")),
        (("index",), dict(type=int, help="space index, may be negative")),
        (("--periodic",), dict(action="store_true",
                               help="for bo: use the periodic table in the "
                                    "range where the connective one "
                                    "differs")),
    ]),
    "catalog": (_cmd_catalog,
                "list catalogued spectra or print one homotopy profile", [
        *_options("degree bound for the homotopy profile (default 256)"),
        (("spectrum",), dict(nargs="?", help="spectrum name; omit to list "
                                             "all")),
    ]),
    "verify": (_cmd_verify,
               "run one named consistency check, or all of them", [
        *_options("the check's scale, by default its pinned one: a degree "
                  "bound, except a level bound for irreducibility, a height "
                  "bound for epsilon-partition and an index bound for "
                  "index-bijection, first-appearance and squares; under "
                  "'all', a cap on each pinned scale", default=None),
        (("check",), dict(choices=CHECK_NAMES + ("all",), metavar="CHECK",
                          help="one of: "
                               + ", ".join(CHECK_NAMES + ("all",)))),
        (("--inject-fault",), dict(action="store_true",
                                   help="corrupt the computation on purpose; "
                                        "a run whose -N reaches the fault's "
                                        "first failing degree (rhs-one: 8, "
                                        "head-induction: 8, negative-tower: "
                                        "1) fails there, and one below it "
                                        "passes")),
    ]),
    "conjecture": (_cmd_conjecture,
                   "print the conjectured cohomology series for a "
                   "truncation height", [
        *_options("degree bound for the series (default 256)"),
        (("height",), dict(type=int, help="truncation height n > 2")),
    ]),
}


def _parse(argv: List[str]) -> Optional[dict]:
    """The attributes argparse would set for `argv`, or None to leave it
    to argparse.  Read here: the subcommand first, then exact option
    names (a long one also as --name=value) with their values, and the
    positionals in order, a negative integer among them as for argparse.
    Declined: -h, an abbreviated or unknown option, "--", an option
    value that is empty or starts with "-", a bad value, and a missing
    or surplus positional."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    func, _, arguments = _GRAMMAR[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals = {}, []
    for flags, spec in arguments:
        dest = flags[0].lstrip("-").replace("-", "_")
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (dest, spec)))
        else:
            positionals.append((dest, spec))
        values[dest] = spec.get("default",
                                False if "action" in spec else None)

    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if not token.startswith("-") or (token[1:].isdigit()
                                         and token.isascii()):
            if not positionals:
                return None
            dest, spec = positionals.pop(0)
            text = token
        elif name in options and (not eq or name.startswith("--")):
            dest, spec = options[name]
            if "action" in spec:  # a flag
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                text = next(tokens, "")
            if text[:1] in ("", "-"):
                return None
        else:
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse reports it
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[dest] = value
    if any(spec.get("nargs") != "?" for _, spec in positionals):
        return None
    return values


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for `_GRAMMAR`."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bopcalc",
        description="Homology and homotopy bookkeeping for the BoP "
                    "Omega spectrum and its relatives.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _GRAMMAR.items():
        command = sub.add_parser(name, help=help_text)
        for flags, spec in arguments:
            command.add_argument(*flags, **spec)
        command.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    values = _parse(argv)
    args = (build_parser().parse_args(argv) if values is None
            else SimpleNamespace(**values))
    try:
        return args.func(args)
    except BopcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError):
        # a size past sys.maxsize (OverflowError from `[0] * n`) is one
        # no memory holds; homology's index sizes the work as much as -N
        sizes = [f"index {args.index}"] if hasattr(args, "index") else []
        if args.max_degree is not None:  # None: verify without -N
            sizes.append(f"-N {args.max_degree}")
        where = " at " + " and ".join(sizes) if sizes else ""
        print(f"error: out of memory{where}", file=sys.stderr)
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
