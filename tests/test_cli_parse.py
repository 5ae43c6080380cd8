"""The CLI's own parse and output writers against argparse, json and csv.

A valid command is parsed from the grammar table and printed through
`_json_chunks` or `_csv_lines`, without importing argparse, json or csv;
argparse, json and csv stay the reference for what they must produce.
"""

import contextlib
import csv
import importlib.util
import io
import json
import os
import re
import runpy
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bopcalc.catalog import CATALOGUED_SPECTRA
from bopcalc.cli import CHECK_NAMES, _csv_lines, _json_chunks, _parse, \
    build_parser

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _json_text(doc):
    return "".join(_json_chunks(doc))


# -- the JSON writer ----------------------------------------------------------

_scalars = (st.none() | st.booleans()
            | st.integers(min_value=-2 ** 300, max_value=2 ** 300)
            | st.floats()  # NaN and the infinities included
            | st.text()
            | st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "é",
                               " ", "\ud800", "a\tb", "ok"]))
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_json_text_is_json_dumps_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def _generated(items):
    yield from items


# Pairs (lazy, plain) of one document: in the lazy one some arrays are
# iterators (a list's, map's or a generator's), empty ones included; the
# plain one is what json.dumps reads.
_ARRAYS = (list, tuple, iter, _generated, lambda items: map(str, items))
_document_pairs = st.recursive(
    _scalars.map(lambda x: (x, x)),
    lambda inner: (
        st.tuples(st.sampled_from(_ARRAYS), st.lists(inner, max_size=4)).map(
            lambda t: (t[0]([lazy for lazy, _ in t[1]]),
                       [plain if t[0] is not _ARRAYS[-1] else str(lazy)
                        for lazy, plain in t[1]]))
        | st.dictionaries(st.text(max_size=6), inner, max_size=4).map(
            lambda d: ({k: lazy for k, (lazy, _) in d.items()},
                       {k: plain for k, (_, plain) in d.items()}))),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_document_pairs)
def test_json_chunks_write_iterators_as_arrays(pair):
    lazy, plain = pair
    assert _json_text(lazy) == json.dumps(plain, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": []}, [{}], {"": ""}, 0, -0.0, 1e300, 2 ** 200,
    float("nan"), float("-inf"), True, None, "é\"\\\n",
])
def test_json_text_edge_cases(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("lazy, plain", [
    (lambda: iter([]), []),
    (lambda: {"a": map(str, [])}, {"a": []}),
    (lambda: [iter(()), (x for x in ())], [[], []]),
    (lambda: {"rows": ({"degree": d} for d in (1, 2))},
     {"rows": [{"degree": 1}, {"degree": 2}]}),
])
def test_json_chunks_empty_and_nested_iterators(lazy, plain):
    assert _json_text(lazy()) == json.dumps(plain, indent=2)


def test_json_chunks_yield_one_piece_per_array_item():
    doc = {"series": {"truncation": 2, "coefficients": map(str, [1, 0, 7])}}
    assert list(_json_chunks(doc)) == [
        '{\n  "series": ', '{\n    "truncation": 2', ',\n    "coefficients": ',
        '[\n      "1"', ',\n      "0"', ',\n      "7"', "\n    ]", "\n  }",
        "\n}"]


@pytest.mark.parametrize("doc", [
    {1, 2}, b"bytes", object(), complex(1, 2), [{"k": {3}}],
    {1: "int key"}, {None: "null key"}, iter([{2}]), {"a": 1, 2: "b"},
])
def test_json_text_rejects_what_it_does_not_write(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


# -- the CSV writer -----------------------------------------------------------

# The rows the commands print: (degree, count or coefficient), a
# spectrum name alone, (spectrum, degree, free rank, torsion), and
# (check, result, first failure degree or "", rounded elapsed ms).
_ints = st.integers(min_value=-2 ** 800, max_value=2 ** 800)
_names = (st.sampled_from([str(s) for s in CATALOGUED_SPECTRA])
          | st.integers(min_value=0, max_value=10 ** 9).map(
              lambda k: f"BPn:{k}"))
_elapsed = st.floats(min_value=0, allow_nan=False,
                     allow_infinity=False).map(lambda ms: round(ms, 3))
_csv_tables = st.sampled_from([
    (("degree", "count"), st.tuples(_ints, _ints)),
    (("degree", "coefficient"), st.tuples(_ints, _ints)),
    (("spectrum",), st.tuples(_names)),
    (("spectrum", "degree", "free_rank", "torsion_z2"),
     st.tuples(_names, _ints, _ints, _ints)),
    (("check", "result", "first_failure_degree", "elapsed_ms"),
     st.tuples(st.sampled_from(CHECK_NAMES), st.sampled_from(["pass", "fail"]),
               st.just("") | _ints, _elapsed)),
]).flatmap(lambda t: st.tuples(st.just(t[0]), st.lists(t[1], max_size=6)))


@settings(max_examples=300, deadline=None)
@given(_csv_tables)
def test_csv_lines_are_what_csv_writer_writes(table):
    header, rows = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert "".join(_csv_lines(header, iter(rows))) == buf.getvalue()


# -- the direct parse ---------------------------------------------------------

# Tokens of every kind, for any subcommand.
_TOKENS = [
    # subcommands, positionals and values
    "homology", "catalog", "verify", "conjecture", "all", "rhs-one",
    "nope", "BoP", "bo", "12", "0", "1e3", "x", "", " 5", "+5", "٣", "a=b",
    "json", "csv", "table", "xml", "limit", "shape",
    # negative numbers, for an index or as a value
    "-1", "-3", "-0", "-٣",
    # exact options, abbreviations, attached and explicit values
    "-N", "--max-degree", "--max", "--max-deg", "--format", "--form",
    "--output", "--out", "--quiet", "--qu", "--periodic", "--per",
    "--inject-fault", "--inj", "--check", "--ch", "-N64", "-N-1", "-N=5",
    "--max-degree=7", "--max-degree=-2", "--format=json", "--format=xml",
    "--format=", "--output=x", "--output=", "--quiet=1", "--check=limit",
    # help, the separator and junk
    "-h", "--help", "--he", "--", "-", "--bogus", "-x", "-N 5",
]

# Per subcommand, chunks of argv that argparse reads there, mixed with
# the tokens above.
_OPTIONS = [("-N", "64"), ("-N", "0"), ("--max-degree", "12"),
            ("--max-degree=3",), ("--format", "json"), ("--format=csv",),
            ("--output", "x"), ("--quiet",)]
_CHUNKS = {
    "homology": [("BoP",), ("bo",), ("12",), ("-3",), ("--periodic",)],
    "catalog": [("BoP",), ("BPn:2",)],
    "verify": [("all",), ("rhs-one",), ("--inject-fault",)],
    "conjecture": [("16",), ("-1",)],
}


def _argvs(command):
    chunk = (st.sampled_from(_CHUNKS[command] + _OPTIONS)
             | st.sampled_from(_TOKENS).map(lambda token: (token,)))
    return st.lists(chunk, max_size=5).map(
        lambda chunks: [command, *(t for chunk in chunks for t in chunk)])


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(_CHUNKS)).flatmap(_argvs))
def test_direct_parse_declines_or_matches_argparse(argv):
    parsed = _parse(argv)
    if parsed is None:
        return  # argparse parses it, or reports its error
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            namespace = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {argv} that argparse rejects: {err.getvalue()}")
    assert parsed == vars(namespace)


@pytest.mark.parametrize("argv", [
    ["homology", "BoP", "-3", "-N", "5"],
    ["homology", "-N", "5", "BoP", "12", "--periodic"],
    ["homology", "BoP", "--quiet", "12"],
    ["verify", "-N", "5", "all", "-N", "7", "--format=json"],
    ["verify", "all", "--max-degree=0", "--output", "out", "--quiet"],
    ["catalog"],
    ["catalog", "--format", "csv", "BPn:2"],
    # the forms that replace `conjecture --check limit` and `--check=shape`
    ["verify", "conjecture-limit", "-N", "100"],
    ["verify", "--format=json", "conjecture-shape"],
    ["conjecture", "+5", "--format", "table"],
])
def test_direct_parse_reads_the_plain_forms(argv):
    parsed = _parse(argv)
    assert parsed is not None
    assert parsed == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["verif", "all"], ["x"], ["verify", "-h"],
    ["verify", "all", "--max", "64"],
    ["verify", "all", "-N64"], ["verify", "all", "-N=64"],
    ["verify", "--", "all"], ["verify", "all", "-N", "-1"],
    ["verify", "all", "-N"], ["verify", "nope"], ["homology", "BoP"],
    ["homology", "BoP", "x"], ["verify", "all", "extra"],
    ["verify", "all", "--quiet=1"], ["verify", "all", "--output", "-"],
    ["verify", "all", "--output="],
    # the conjecture-side checks run under verify only
    ["conjecture", "--check", "limit"],
    ["conjecture", "16", "--check=shape"],
])
def test_direct_parse_declines(argv):
    assert _parse(argv) is None


# -- what a valid command imports ---------------------------------------------

# The forms argparse reads: an abbreviation and an empty option value,
# which main() then runs, and help and usage errors, which leave main()
# through SystemExit.
READ_BY_ARGPARSE = {("verify", "all", "--max", "64", "--format=json"),
                    ("catalog", "--output", "")}
EXITING = {("--help",), ("homology", "--help"), ("catalog", "--help"),
           ("verify", "--help"), ("conjecture", "--help"),
           ("verify", "nope"), ("verify", "rhs-one", "-N", "-1"),
           ("conjecture", "--check", "limit")}


def _readme_forms():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return [shlex.split(m.group(1), comments=True)
                for m in re.finditer(r"^bopcalc (.*)$", fh.read(), re.M)]


def _ci_forms():
    """Every bopcalc command the workflow runs: its shell up to the
    first redirect, pipe or subshell end, with $n at its largest and
    the BoP index $i at its lowest, the one that reads like an option."""
    path = os.path.join(ROOT, ".github", "workflows", "tests.yml")
    with open(path, encoding="utf-8") as fh:
        lines = [line.split("-m bopcalc ", 1)[1] for line in fh
                 if "-m bopcalc " in line]
    forms = []
    for line in lines:
        argv = []
        for token in shlex.split(line):
            if set(token) & set(">|)"):
                break
            argv.append({"$n": "4096", "$i": "-8"}.get(token, token))
        forms.append(argv)
    return forms


def _perfbench_forms():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    workloads = runpy.run_path(path)["WORKLOADS"]
    return [op.argv(n) for ops in workloads.values()
            for op in ops for n in op.n_values or (None,)]


# Runs each form through main() in one process.  After each form the
# watched modules leave sys.modules again, so each form's imports are
# its own; the first form's include those of importing bopcalc.cli.
PROBE = """
import os, sys
forms = {forms!r}
watched = {{"argparse", "gettext", "locale", "json"}}
start = set(sys.modules)
from bopcalc.cli import main
sys.stdout = sys.stderr = open(os.devnull, "w")
for argv in forms:
    exited = False
    try:
        main(argv)
    except SystemExit:
        exited = True
    loaded = watched & (set(sys.modules) - start)
    sys.__stdout__.write(f"{{exited}} {{' '.join(sorted(loaded))}}\\n")
    for name in loaded:
        del sys.modules[name]
"""


def test_valid_commands_load_neither_argparse_nor_json(tmp_path):
    forms = _readme_forms() + _ci_forms() + _perfbench_forms()
    assert len(forms) > 30
    src = os.path.dirname(os.path.dirname(
        importlib.util.find_spec("bopcalc").origin))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(forms=forms)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    results = proc.stdout.splitlines()
    assert len(results) == len(forms)
    exiting = set()
    for argv, line in zip(forms, results):
        exited, _, loaded = line.partition(" ")
        if exited == "True":
            exiting.add(tuple(argv))
        elif tuple(argv) in READ_BY_ARGPARSE:
            assert "argparse" in loaded.split(), argv
        else:
            assert loaded == "", argv
    assert exiting <= EXITING
