"""bopcalc benchmark: cold-process closed loop over a workload's op list.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``battery``, ``tower-deep``, ``identity-deep`` or ``all`` (each
in turn).  One client starts one fresh ``python -m bopcalc ...`` process
at a time and waits for it to exit; a pass runs every op of the
workload once, in an order the seed shuffles.  Passes repeat until S
seconds have passed; the last one runs to its end.

--trace 0 reports the end-to-end metrics, each the median over passes.
--trace 1 alternates an untraced pass with a traced one, in which every
op runs under ``tracer.py``, and reports the per-layer metrics.

Every op's exit status and output are checked against
``references.json`` (see ``gate.py``).  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
from workloads import WORKLOADS, draw, reference_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11


class BenchError(Exception):
    pass


# -- child processes ---------------------------------------------------------

class Runner:
    """Runs children through ``spawner.py``, with output files kept in a
    scratch directory inside the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # Children see no PYTHON* setting of the caller, so that, say,
        # PYTHONDONTWRITEBYTECODE cannot add compile time to every start.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            text=True)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, cmd):
        """Run cmd to exit: wall time from spawn to exit; CPU time and
        peak RSS from ``os.wait4``."""
        out_path = self.workdir / "stdout"
        self.spawner.stdin.write(
            json.dumps({"cmd": cmd, "stdout": str(out_path)}) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise BenchError("spawner exited")
        reply = json.loads(line)
        return {"exit": reply["exit"], "wall": reply["wall"],
                "cpu": reply["cpu"], "rss_mb": reply["maxrss_kb"] / 1024.0,
                "stdout": out_path.read_bytes()}

    def op(self, argv):
        return self.spawn([sys.executable, "-m", "bopcalc", *argv])

    def traced_op(self, argv):
        trace_path = self.workdir / "trace.json"
        trace_path.unlink(missing_ok=True)
        result = self.spawn([sys.executable, str(HERE / "tracer.py"),
                             str(trace_path), *argv])
        if not trace_path.exists():
            raise BenchError(f"traced child wrote no trace for {argv}")
        result["trace"] = json.loads(trace_path.read_text())
        return result

    def setup_times(self):
        """Interpreter start through ``import bopcalc.cli``, timed
        SETUP_SAMPLES times after one untimed run fills the bytecode cache."""
        probe = ("import bopcalc.cli, sys; "
                 "sys.stdout.write(bopcalc.cli.__file__)")
        first = self.spawn([sys.executable, "-c", probe])
        want = ROOT / "src" / "bopcalc" / "cli.py"
        if first["exit"] != 0 or Path(first["stdout"].decode()) != want:
            raise BenchError(f"bopcalc does not import from {want}")
        return [self.spawn([sys.executable, "-c", "import bopcalc.cli"])["wall"]
                for _ in range(SETUP_SAMPLES)]


# -- one workload ------------------------------------------------------------

class Workload:
    def __init__(self, name, seed, runner, refs):
        self.name = name
        self.plan, self.rng = draw(name, seed)
        self.runner = runner
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.gated_failed = 0
        self.self_tested = False
        self.failures = {}

    def run_pass(self, traced):
        order = list(self.plan)
        self.rng.shuffle(order)
        results = []
        for op, n in order:
            argv = op.argv(n)
            res = (self.runner.traced_op(argv) if traced
                   else self.runner.op(argv))
            self.check(op, argv, res)
            results.append((op, res))
        return results

    def check(self, op, argv, res):
        self.attempted += 1
        if op.smoke:
            reason = gate.judge_smoke(self.refs["registered_checks"],
                                      res["exit"], res["stdout"])
        else:
            ref = self.refs["ops"].get(reference_key(argv))
            if ref is None:
                raise BenchError(f"no stored reference for {argv}")
            reason = gate.judge(ref, res["exit"], res["stdout"])
            if reason is None and not self.self_tested:
                gate.self_test(ref, res["exit"], res["stdout"])
                self.self_tested = True
        if reason is not None:
            self.failed += 1
            self.gated_failed += not op.smoke
            self.failures[" ".join(argv)] = reason

    def loop(self, seconds, traced):
        """Repeat (untraced pass[, traced pass]) until ``seconds`` have
        passed; the last round runs to its end."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(tuple(self.run_pass(tr)
                                for tr in ((False, True) if traced
                                           else (False,))))
        return rounds

    @property
    def drawn(self):
        return {op.name: n for op, n in self.plan if n is not None}


# -- metrics -----------------------------------------------------------------

def end_to_end(rounds, setup):
    per_pass = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    for (results,) in rounds:
        timed = [r for op, r in results if not op.smoke]
        per_pass["wall_s"].append(sum(r["wall"] for r in timed))
        per_pass["cpu_s"].append(sum(r["cpu"] for r in timed))
        per_pass["peak_rss_mb"].append(max(r["rss_mb"] for _, r in results))
    per_pass["setup_s"] = setup
    return per_pass


def per_layer(rounds, checks):
    per_round = []
    for plain, traced in rounds:
        values = {f"verify.{c}.elapsed_ms": 0.0 for c in checks}
        for op, r in plain:
            if op.smoke or "--inject-fault" in op.args:
                continue
            doc = json.loads(r["stdout"])
            for report in doc.get("reports") or [doc.get("report") or {}]:
                if "check" in report:
                    values[f"verify.{report['check']}.elapsed_ms"] += \
                        report["elapsed_ms"]
        values["cli.output_bytes"] = sum(len(r["stdout"]) for _, r in plain)
        untraced_wall = sum(r["wall"] for _, r in plain)
        traced_wall = sum(r["wall"] for _, r in traced)
        values["trace.overhead_frac"] = (
            (traced_wall - untraced_wall) / untraced_wall)

        spans = {}
        values.update({"series.mul.terms": 0, "series.max_coeff_bits": 0,
                       "series.max_truncation": 0, "cli.startup_s": 0.0,
                       "trace.bookkeeping_s": 0.0})
        for _, r in traced:
            tr = r["trace"]
            total = sum(s["self_s"] for s in tr["spans"].values())
            if abs(total + tr["bookkeeping_s"] - tr["main_s"]) > 1e-6:
                raise BenchError("span self times do not add up to cli.main")
            values["cli.startup_s"] += r["wall"] - tr["main_s"]
            values["trace.bookkeeping_s"] += tr["bookkeeping_s"]
            values["series.mul.terms"] += tr["series.mul.terms"]
            for key in ("series.max_coeff_bits", "series.max_truncation"):
                values[key] = max(values[key], tr[key])
            for name, s in tr["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0])
                acc[0] += s["calls"]
                acc[1] += s["self_s"]
                acc[2] += s["distinct"]
        for name, (calls, self_s, distinct) in spans.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
            values[f"{name}.distinct_frac"] = distinct / calls if calls else 0.0
        per_round.append(values)
    return {k: [v[k] for v in per_round] for k in per_round[0]}


def accounting(rounds):
    """Per traced op of the last round: wall = start-up + self + bookkeeping."""
    lines = []
    for op, r in rounds[-1][1]:
        tr = r["trace"]
        self_s = sum(s["self_s"] for s in tr["spans"].values())
        lines.append(f"  {op.name:<22} wall {r['wall']:8.4f} s = startup "
                     f"{r['wall'] - tr['main_s']:.4f} + self {self_s:.4f} "
                     f"+ bookkeeping {tr['bookkeeping_s']:.4f}")
    return lines


def summarize(samples):
    values = sorted(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3, len(values)


# -- environment record ------------------------------------------------------

def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over the package sources, naming the code measured even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bopcalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(workload, seed, seconds, trace, passes):
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "passes": passes, "n_drawn": workload.drawn,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "commit": commit(),
            "src_sha256": source_digest()}


# -- driver ------------------------------------------------------------------

def run_workload(name, args, runner, refs, spec):
    wl = Workload(name, args.seed, runner, refs)
    setup = runner.setup_times()
    traced = bool(args.trace)
    rounds = wl.loop(args.seconds, traced)
    wanted = spec["per_layer" if traced else "end_to_end"]
    samples = (per_layer(rounds, refs["registered_checks"]) if traced
               else end_to_end(rounds, setup))

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(rounds)}  -N {wl.drawn or 'pinned'}")
    metrics = {}
    for m in wanted:
        med, q1, q3, count = summarize(samples[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"  {m['name']:<44} {med:14.6g} {m['unit']:<6} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={count})")
    if traced:
        print("per-op accounting, last traced pass:")
        print("\n".join(accounting(rounds)))
    print(f"  failed_frac {wl.failed}/{wl.attempted} = "
          f"{wl.failed / wl.attempted:.4f}")
    for argv, reason in wl.failures.items():
        print(f"  FAILED {argv}: {reason}")
    print("record " + json.dumps(record(wl, args.seed, args.seconds,
                                        args.trace, len(rounds))))
    return {"correct": wl.gated_failed == 0, "attempted": wl.attempted,
            "failed": wl.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bopcalc" / "__init__.py").is_file():
        print(f"error: no bopcalc source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(workdir)
    try:
        results = {n: run_workload(n, args, runner, refs, spec)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
