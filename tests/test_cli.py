import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

from bopcalc import series as series_mod
from bopcalc import towers as towers_mod
from bopcalc.catalog import BOP, X, SpaceRef
from bopcalc.cli import (
    _FAULT_CHECKS,
    _REGISTRY,
    CHECK_NAMES,
    build_parser,
    main,
    run,
)

SERIES_SCHEMA = {
    "type": "object",
    "required": ["truncation", "coefficients"],
    "properties": {
        "truncation": {"type": "integer", "minimum": 0},
        "coefficients": {"type": "array",
                         "items": {"type": "string", "pattern": r"^-?\d+$"}},
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["check", "parameters", "pass", "elapsed_ms"],
    "properties": {
        "check": {"type": "string"},
        "parameters": {"type": "object"},
        "pass": {"type": "boolean"},
        "elapsed_ms": {"type": "number", "minimum": 0},
        "first_failure_degree": {"type": "integer", "minimum": 0},
        "detail": {"type": "object"},
    },
    "additionalProperties": False,
}

HOMOLOGY_SCHEMA = {
    "type": "object",
    "required": ["command", "spectrum", "index", "max_degree",
                 "provenance", "table", "series", "notes"],
    "properties": {
        "command": {"const": "homology"},
        "spectrum": {"type": "string"},
        "index": {"type": "integer"},
        "max_degree": {"type": "integer", "minimum": 0},
        "provenance": {"enum": ["catalog", "rank_rule", "product",
                                "ses_solved"]},
        "table": {"type": ["object", "null"]},
        "series": SERIES_SCHEMA,
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


def run_cli(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "bopcalc", *argv],
                          capture_output=True, text=True, **kwargs)


def test_homology_table_text():
    proc = run_cli("homology", "BoP", "4", "-N", "16")
    assert proc.returncode == 0
    assert "space: BoP_4" in proc.stdout
    assert "provenance: ses_solved" in proc.stdout
    assert "kind: polynomial" in proc.stdout
    rows = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].isdigit():
            rows[int(parts[0])] = int(parts[1])
    assert rows == {4: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 3}


def test_homology_json_schema_and_roundtrip():
    proc = run_cli("homology", "X", "-2", "-N", "20", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, HOMOLOGY_SCHEMA)
    want = towers_mod.space_homology(SpaceRef(X, -2), 20).series
    assert doc["series"] == want.to_json()
    assert doc["provenance"] == "rank_rule"


def test_homology_bo_auto_periodic_note():
    proc = run_cli("homology", "bo", "9", "-N", "12")
    assert proc.returncode == 0
    assert "note:" in proc.stderr
    quiet = run_cli("homology", "bo", "9", "-N", "12", "--quiet")
    assert quiet.returncode == 0
    assert quiet.stderr == ""
    assert quiet.stdout == proc.stdout


def test_homology_series_only_space():
    proc = run_cli("homology", "BoP", "1", "-N", "8", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["table"] is None
    assert doc["notes"]


@pytest.mark.parametrize("fmt, built", [
    ("csv", []),
    ("json", ["poincare_series", "_euler"]),
])
def test_homology_builds_a_series_only_to_print_it(monkeypatch, capsys,
                                                   fmt, built):
    # csv prints space 12's table as it is; json prints its series too,
    # built once, from the table
    calls = []
    for module, name in ((series_mod, "_euler"),
                         (towers_mod, "poincare_series")):
        def counted(*args, name=name, real=getattr(module, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(["homology", "BoP", "12", "-N", "64", "--format", fmt]) == 0
    assert calls == built
    assert capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("index, calls", [
    # space 12's csv and text print its table, and build no series
    ("12", {"json": 1, "csv": 0, "table": 0}),
    # space 1 has generators of both parities and prints only its series
    ("1", {"json": 1, "csv": 1, "table": 1}),
])
def test_homology_reads_its_series_once(monkeypatch, capsys, fmt, index,
                                        calls):
    # each read of TowerResult.series runs one Euler pass
    passes = []

    def counted(*args, real=series_mod._euler):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(series_mod, "_euler", counted)
    assert main(["homology", "BoP", index, "-N", "64", "--format", fmt]) == 0
    assert len(passes) == calls[fmt]
    assert capsys.readouterr().out


def test_homology_json_holds_one_row_at_a_time(monkeypatch, tmp_path):
    # with the output streamed, printing space 12 costs about what its
    # solve and series cost; a document built whole costs half as much
    # again
    def peak(work):
        work()  # the profiles the solve reads are built once per process
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with open(tmp_path / "out.json", "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        printed = peak(lambda: main(["homology", "BoP", "12", "-N", "1032",
                                     "--format", "json"]))
    solved = peak(lambda: towers_mod.space_homology(SpaceRef(BOP, 12),
                                                    1032).series)
    assert printed <= 1.15 * solved


@pytest.mark.parametrize("argv", [
    ("homology", "BoP", "12", "-N", "40"),
    ("homology", "BoP", "1", "-N", "40"),
    ("catalog",),
    ("catalog", "BPn:3", "-N", "40"),
    ("conjecture", "16", "-N", "40"),
])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_output_file_holds_what_stdout_prints(tmp_path, capsys, argv, fmt):
    target = tmp_path / "out"
    argv = [*argv, "--format", fmt]
    status = main(argv)
    printed = capsys.readouterr().out
    assert main([*argv, "--output", str(target)]) == status
    assert capsys.readouterr().out == ""
    assert _masked(target.read_text(encoding="utf-8")) == _masked(printed)
    assert printed.endswith("\n") and "\n\n" not in printed


def test_output_write_failing_midway_exits_2(capsys):
    # /dev/full opens, and then every write to it fails
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    status = main(["homology", "BoP", "12", "-N", "1024", "--format", "json",
                   "--output", "/dev/full"])
    assert status == 2
    assert capsys.readouterr() == (
        "", "error: cannot write /dev/full: No space left on device\n")


@pytest.mark.parametrize("argv, status", [
    (("homology", "BoP", "12", "-N", "400", "--format", "csv"), 0),
    (("verify", "rhs-one", "-N", "64", "--inject-fault", "--format", "json"),
     1),
    (("homology", "BoP", "12", "-N", "2048", "--format", "json"), 0),
    (("homology", "BoP", "12", "-N", "2048", "--format", "table"), 0),
])
def test_closed_stdout_keeps_the_exit_status(argv, status):
    # the read end is closed before the child starts, so its first
    # write to stdout fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bopcalc", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert proc.returncode == status
    assert proc.stderr == ""


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_reader_leaving_midway_keeps_the_printed_prefix(fmt):
    # space 1's series prints over 300 KB in every format, more than a
    # pipe holds, so the writer is still writing when the reader leaves
    # after its first bytes
    argv = ["homology", "BoP", "1", "-N", "4096", "--format", fmt, "--quiet"]
    with subprocess.Popen([sys.executable, "-m", "bopcalc", *argv],
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0 and err == b""
    assert run_cli(*argv).stdout.encode().startswith(head) and head


def test_homology_domain_errors():
    for argv in (("homology", "F", "9"),
                 ("homology", "Fish", "2"),
                 ("homology", "BP", "2", "--periodic"),
                 ("homology", "bo", "2", "-N", "-4")):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()


@pytest.mark.parametrize("value, message", [
    ("1e3", "invalid int value: '1e3'"),
    ("x", "invalid int value: 'x'"),
    ("-4", "must be >= 0"),
])
def test_max_degree_errors_name_the_option_not_a_helper(value, message):
    proc = run_cli("homology", "bo", "2", "-N", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    last = proc.stderr.splitlines()[-1]
    assert last == f"bopcalc homology: error: argument --max-degree/-N: " \
                   f"{message}"


def test_catalog_listing_and_profile():
    proc = run_cli("catalog")
    assert proc.returncode == 0
    names = proc.stdout.split()
    assert "BoP" in names and "bo" in names
    proc = run_cli("catalog", "bo", "-N", "12", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["command"] == "catalog" and doc["max_degree"] == 12
    profile = doc["profile"]
    jsonschema.validate(profile["free_ranks"], SERIES_SCHEMA)
    free = profile["free_ranks"]["coefficients"]
    assert free[4] == "1" and free[6] == "0"
    torsion = {row["degree"]: row["count"] for row in profile["torsion_z2"]}
    assert torsion == {1: 1, 2: 1, 9: 1, 10: 1}


def test_catalog_bpn_level_far_above_the_truncation():
    # the profile chain stops at the last level below N, so a huge
    # level neither recurses nor changes what is printed
    proc = run_cli("catalog", "BPn:5000", "-N", "10")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        "spectrum: BPn(5000)\n"
        "  degree  free_rank  torsion_z2\n"
        + "".join(f"{d:8d}{r:11d}{0:12d}\n"
                  for d, r in [(0, 1), (2, 1), (4, 1), (6, 2), (8, 2),
                               (10, 2)]))
    proc = run_cli("catalog", "BPn:5000", "-N", "10", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["profile"]["spectrum"] == "BPn(5000)"
    assert doc["profile"]["free_ranks"]["coefficients"] == \
        ["1", "0", "1", "0", "1", "0", "2", "0", "2", "0", "2"]


def test_catalog_csv_parses():
    proc = run_cli("catalog", "BPn:2", "-N", "12", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert rows[0]["spectrum"] == "BPn(2)"
    by_degree = {int(r["degree"]): int(r["free_rank"]) for r in rows}
    assert by_degree[0] == 1 and by_degree[2] == 1 and by_degree[6] == 2


def test_verify_single_json():
    proc = run_cli("verify", "rhs-one", "-N", "64", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "verify"
    jsonschema.validate(doc["report"], REPORT_SCHEMA)
    assert doc["report"]["pass"] is True
    assert doc["report"]["parameters"]["max_degree"] == 64


def test_verify_fault_injection_fails_with_location():
    proc = run_cli("verify", "rhs-one", "-N", "64", "--inject-fault",
                   "--format", "json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["report"]["pass"] is False
    assert doc["report"]["first_failure_degree"] == 8


def test_verify_fault_requires_support():
    proc = run_cli("verify", "squares", "--inject-fault")
    assert proc.returncode == 2
    proc = run_cli("verify", "all", "--inject-fault")
    assert proc.returncode == 2


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_check_injects_its_fault_or_refuses(name, capsys):
    status = main(["verify", name, "--inject-fault", "--format", "json"])
    out, err = capsys.readouterr()
    if name in ("rhs-one", "head-induction", "negative-tower"):
        assert status == 1
        report = json.loads(out)["report"]
        assert report["pass"] is False
        assert report["first_failure_degree"] >= 0
    else:
        assert status == 2 and out == ""
        assert f"check {name!r} has no fault to inject" in err


# The degree at which each check's fault first shows, as the README and
# the --inject-fault help state it.
FAULT_DEGREES = [("rhs-one", 8), ("head-induction", 8), ("negative-tower", 1)]


@pytest.mark.parametrize("name, degree", FAULT_DEGREES)
def test_fault_first_fails_at_its_stated_degree(name, degree, capsys):
    # the README states each fault's first failing degree: one scale
    # below it the faulted run passes, and at it the run fails there
    argv = ["verify", name, "--inject-fault", "--format", "json", "-N"]
    assert main(argv + [str(degree - 1)]) == 0
    capsys.readouterr()
    assert main(argv + [str(degree)]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["first_failure_degree"] == degree


def test_inject_fault_help_names_each_first_degree():
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    (action,) = [a for a in verify._actions
                 if "--inject-fault" in a.option_strings]
    assert sorted(_FAULT_CHECKS) == sorted(name for name, _ in FAULT_DEGREES)
    for name, degree in FAULT_DEGREES:
        assert f"{name}: {degree}" in action.help


@pytest.mark.parametrize("command, text", [
    ("homology", "degree bound for the series and tables (default 256)"),
    ("verify", "the check's scale, by default its pinned one: a degree "
               "bound, except a level bound for irreducibility, a height "
               "bound for epsilon-partition and an index bound for "
               "index-bijection, first-appearance and squares; under 'all', "
               "a cap on each pinned scale"),
])
def test_max_degree_help_says_what_it_bounds(monkeypatch, capsys, command,
                                            text):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per option
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_pinned_scale_is_the_verifiers_default(name):
    # one size argument, the scale, then the fault keywords if any
    spec = _REGISTRY[name]
    scale, *rest = inspect.signature(spec.verifier).parameters.values()
    assert [p.name for p in rest] == list(spec.faults or {})
    assert spec.pinned_scale == scale.default

def test_verify_all_capped():
    proc = run_cli("verify", "all", "-N", "64", "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert len(doc["reports"]) == len(CHECK_NAMES)
    for report in doc["reports"]:
        jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize("n", ["0", "1", "2"])
def test_verify_all_tiny_scale_smoke(n):
    proc = run_cli("verify", "all", "-N", n, "--format", "json")
    assert proc.returncode in (0, 1)
    doc = json.loads(proc.stdout)
    assert [r["check"] for r in doc["reports"]] == list(CHECK_NAMES)


def test_verify_all_survives_a_raising_check(monkeypatch, capsys):
    def broken(i_max, truncation):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(towers_mod, "bop_tower", broken)
    status = main(["verify", "all", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert status == 1
    assert [r["check"] for r in doc["reports"]] == list(CHECK_NAMES)
    for report in doc["reports"]:
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["pass"] == (report["check"] != "bop-tower")
    failed = doc["reports"][CHECK_NAMES.index("bop-tower")]
    assert failed["first_failure_degree"] == 0
    assert failed["detail"] == {"error": "RuntimeError: solver exploded"}


def test_conjecture_series_tiny_scale():
    proc = run_cli("conjecture", "3", "-N", "1", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == "degree,coefficient\n0,1\n1,0\n"


def test_every_check_reports_at_every_small_scale(capsys):
    # 21 is the largest level bound irreducibility accepts
    for name in CHECK_NAMES:
        for n in range(22):
            status = main(["verify", name, "-N", str(n), "--format", "json"])
            report = json.loads(capsys.readouterr().out)["report"]
            assert (status, report["check"], report["pass"]) == \
                (0, name, True), (name, n)


def test_conjecture_limit_runs_at_the_scale_asked_for():
    # no clamp: -N reaches the edges of agreement at 127, 255 and 511
    for command in (("verify", "conjecture-limit"),
                    ("conjecture", "--check", "limit")):
        proc = run_cli(*command, "-N", "100", "--format", "json")
        assert (proc.returncode, proc.stderr) == (0, ""), command
        report = json.loads(proc.stdout)["report"]
        assert report["pass"] is True
        assert report["parameters"]["max_degree"] == 100
    for n in ("126", "127", "4096"):
        proc = run_cli("verify", "conjecture-limit", "-N", n)
        assert (proc.returncode, proc.stderr) == (0, ""), n


def test_verify_quiet_table_hides_passes():
    proc = run_cli("verify", "bo-deloopings", "--quiet")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_verify_unknown_check_rejected_by_parser():
    proc = run_cli("verify", "no-such-check")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_conjecture_series_csv():
    proc = run_cli("conjecture", "5", "-N", "10", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    coeffs = [int(r["coefficient"]) for r in rows]
    assert coeffs == [1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 1]


def test_conjecture_height_validation():
    assert run_cli("conjecture", "2").returncode == 2
    assert run_cli("conjecture").returncode == 2
    proc = run_cli("conjecture", "5", "--check", "limit")
    assert proc.returncode == 2


def test_conjecture_check_runs():
    proc = run_cli("conjecture", "--check", "first-appearance",
                   "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["check"] == "first-appearance"


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    proc = run_cli("conjecture", "4", "-N", "8", "--format", "json",
                   "--output", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "conjecture" and doc["height"] == 4


def test_quiet_output_file_replaces_a_stale_one(tmp_path, capsys):
    # every check passes and --quiet drops its line, so the file is empty
    target = tmp_path / "out.txt"
    target.write_text("FAIL rhs-one first_failure_degree=8 (1.0 ms)\n")
    status = main(["verify", "rhs-one", "-N", "16", "--quiet",
                   "--output", str(target)])
    assert status == 0 and capsys.readouterr() == ("", "")
    assert target.read_text() == ""


@pytest.mark.parametrize("target", ["missing/dir/out.txt", "."])
def test_output_file_unwritable(tmp_path, capsys, target):
    path = tmp_path / target
    status = main(["catalog", "--output", str(path)])
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_output_file_empty_name(capsys):
    # an empty name is a file that cannot be opened, not stdout
    status = main(["catalog", "--output", ""])
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    assert err.startswith("error: cannot write : ")


def test_console_script_entry_point():
    proc = subprocess.run(["bopcalc", "catalog"], capture_output=True,
                          text=True)
    assert proc.returncode == 0 and "BoP" in proc.stdout


def _masked(text):
    return re.sub(r'"elapsed_ms": [^,}\n]+', '"elapsed_ms": 0', text)


def _in_process(argv, capsys):
    """main()'s status and its two streams, as the process would exit."""
    try:
        status = main(list(argv))
    except SystemExit as exc:   # argparse usage errors
        status = exc.code
    out, err = capsys.readouterr()
    return status, _masked(out), err


@pytest.mark.parametrize("module", ["bopcalc", "bopcalc.cli"])
@pytest.mark.parametrize("argv, status", [
    (("verify", "all", "--format", "json"), 0),
    (("verify", "rhs-one", "--inject-fault", "--format", "json"), 1),
    (("homology", "Fish", "2"), 2),
    (("verify", "no-such-check"), 2),
])
def test_process_exit_matches_main(module, argv, status, capsys):
    # the process leaves through os._exit (argparse errors through
    # SystemExit); either way it prints what main() prints and exits
    # with its status
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == status
    assert _in_process(argv, capsys) == (status, _masked(proc.stdout),
                                         proc.stderr)


def test_output_file_holds_the_whole_report(tmp_path, capsys):
    target = tmp_path / "out.json"
    argv = ("verify", "all", "--format", "json")
    proc = run_cli(*argv, "--output", str(target))
    assert proc.returncode == 0 and proc.stdout == proc.stderr == ""
    text = target.read_text()
    assert len(json.loads(text)["reports"]) == len(CHECK_NAMES)
    assert _masked(text) == _in_process(argv, capsys)[1]


class _Stream(io.StringIO):
    def __init__(self, name, events, broken=False):
        super().__init__()
        self.name, self.events, self.broken = name, events, broken

    def flush(self):
        self.events.append(("flush", self.name))
        if self.broken:
            raise BrokenPipeError(32, "Broken pipe")
        super().flush()


@pytest.mark.parametrize("argv, status", [
    (("verify", "rhs-one", "-N", "16"), 0),
    (("verify", "rhs-one", "-N", "16", "--inject-fault"), 1),
    (("homology", "Fish", "2"), 2),
])
def test_run_flushes_both_streams_then_exits(monkeypatch, argv, status):
    events = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
    run(argv)
    assert events[-3:] == [("flush", "stdout"), ("flush", "stderr"),
                           ("exit", status)]
    assert sys.stdout.getvalue() or sys.stderr.getvalue()


def test_run_keeps_the_status_when_the_final_flush_fails(monkeypatch):
    # every check passes and --quiet prints nothing, so the only write
    # to stdout is run()'s own flush, which meets a closed pipe
    events = []
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, broken=True))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))
    run(["verify", "rhs-one", "-N", "16", "--quiet"])
    assert events == [("flush", "stdout"), ("flush", "stderr"), ("exit", 0)]
    assert sys.stderr.getvalue() == ""


def test_out_of_memory_exits_2_and_names_the_scale(monkeypatch, capsys):
    # homology BoP 12 -N 300000000 runs out of memory in the series it
    # allocates; the seam raises as that allocation would
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(towers_mod, "space_homology", exhausted)
    assert main(["homology", "BoP", "12", "-N", "300000000"]) == 2
    assert capsys.readouterr() == (
        "", "error: out of memory at -N 300000000\n")
