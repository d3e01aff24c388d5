"""Benchmark runner for longedge: three workloads, checked outputs, traced runs.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/` (PYTHONPATH), nothing is installed.  Without --workload every
workload runs in turn.  One runner process starts at most one child at a
time and waits for it.  Scratch files (corpora, outputs, caches, spans) go
to `.perfbench_work/<workload>/`, which each run empties first.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same operations
untraced and then traced and prints the per-layer metrics.  The end-to-end
times are scaled to a reference machine speed: between operations the
runner times a fixed job that does not use longedge (calibrate.py), and
multiplies the run's times by CAL_REF_S over that job's median time.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from corpus import DELTA, corpus  # noqa: E402

PY = sys.executable
CLI = [PY, "-m", "longedge.cli"]
RUN_LIMIT_S = 170.0  # every child is killed once a run has lasted this long
SETUP_REPEATS = {"table-cold": 9, "severi-direct": 9, "severi-cli": 9}
# the parent commit's cost of one operation (table-cold) or one corpus round
# (severi-*) on a 2-CPU box; --seconds buys that many of them, at least one
NOMINAL_S = {"table-cold": 3.3, "severi-direct": 20.0, "severi-cli": 5.8}
# the calibration job runs once before each set-up repetition, and this many
# times before each operation of the untraced pass and after its last;
# CAL_REF_S is its time on a 2-CPU box
CAL_PER_OP = {"table-cold": 3, "severi-direct": 2, "severi-cli": 1}
CAL_REF_S = 0.2
CAL_ANSWER = "40320 28715028/5005"

# per-layer metric -> (unit, better, source, key); see README.md
PER_LAYER = {
    "graphs.enumerate_templates.s": ("s", "lower", "self", "graphs.enumerate_templates"),
    "graphs.templates": ("count", "higher", "count", "graphs.templates"),
    "graphs.enumerate_graphs.s": ("s", "lower", "self", "graphs.enumerate_graphs"),
    "graphs.graphs": ("count", "lower", "count", "graphs.graphs"),
    "orderings.fit_linear_phi.s": ("s", "lower", "self", "orderings.fit_linear_phi"),
    "orderings.fit_linear_phi.calls": ("count", "lower", "calls", "orderings.fit_linear_phi"),
    "orderings.phi_beta.s": ("s", "lower", "self", "orderings.phi_beta"),
    "orderings.phi_beta.calls": ("count", "lower", "calls", "orderings.phi_beta"),
    "orderings.allowability.s": ("s", "lower", "self", "orderings.allowability"),
    "orderings.allowability.calls": ("count", "lower", "calls", "orderings.allowability"),
    "orderings.p_beta.s": ("s", "lower", "self", "orderings.p_beta"),
    "orderings.p_beta.calls": ("count", "lower", "calls", "orderings.p_beta"),
    "orderings.p_beta.distinct": ("count", "lower", "distinct", "orderings.p_beta"),
    "orderings.p_beta.distinct_ratio": ("ratio", "higher", "ratio", "orderings.p_beta"),
    "orderings.p_beta_strict.s": ("s", "lower", "self", "orderings.p_beta_strict"),
    "orderings.p_beta_strict.calls": ("count", "lower", "calls", "orderings.p_beta_strict"),
    "coeffs.template_data.s": ("s", "lower", "self", "coeffs.template_data"),
    "coeffs.template_coefficients.s": ("s", "lower", "self", "coeffs.template_coefficients"),
    "coeffs.b_coeffs.s": ("s", "lower", "self", "coeffs.b_coeffs"),
    "coeffs.diffq.s": ("s", "lower", "self", "coeffs.diffq"),
    "coeffs.diffq.calls": ("count", "lower", "calls", "coeffs.diffq"),
    "coeffs.diffq.distinct": ("count", "lower", "distinct", "coeffs.diffq"),
    "coeffs.q_beta_delta.s": ("s", "lower", "self", "coeffs.q_beta_delta"),
    # a_series is series algebra, though it lives in coeffs.py
    "series.a_series.s": ("s", "lower", "self", "coeffs.a_series"),
    "series.log_exp_coeffs.s": ("s", "lower", "self", "series.log_exp_coeffs"),
    "polygon.reorderings.s": ("s", "lower", "self", "polygon.reorderings"),
    "polygon.reorderings.count": ("count", "lower", "count", "polygon.reorderings.count"),
    "polygon.polygon_stats.calls": ("count", "lower", "calls", "polygon.polygon_stats"),
    "severi.n_bruteforce.s": ("s", "lower", "self", "severi.n_bruteforce"),
    "severi.q_polygon.s": ("s", "lower", "self", "severi.q_polygon"),
    "severi.q_geometric.s": ("s", "lower", "self", "severi.q_geometric"),
    "severi.report.s": ("s", "lower", "self", "severi.report"),
    "cli.import.s": ("s", "lower", "extra", "cli.import.s"),
    "cli.cache.load.calls": ("count", "higher", "calls", "cli.load_cached"),
    "cli.cache.load.hits": ("count", "higher", "count", "cli.cache.load.hits"),
    "cli.cache.load.rejected": ("count", "lower", "count", "cli.cache.load.rejected"),
    "cli.cache.load.s": ("s", "lower", "self", "cli.load_cached"),
    "cli.cache.store.calls": ("count", "lower", "calls", "cli.store_cached"),
    "cli.cache.store.s": ("s", "lower", "self", "cli.store_cached"),
    "cli.cache.bytes_written": ("bytes", "lower", "count", "cli.cache.bytes_written"),
    "trace.overhead_s": ("s", "lower", "overhead", None),
}


class BenchError(Exception):
    """The benchmark could not run: no program to measure, or a broken step."""


class Child(NamedTuple):
    """One finished child process: wall time, exit code and output."""

    seconds: float
    returncode: int
    stdout: str
    stderr: str


class Run:
    """Scratch directory, child processes and peak RSS of one workload run."""

    def __init__(self, workload: str):
        if not (ROOT / "src" / "longedge" / "cli.py").is_file():
            raise BenchError(f"no longedge sources under {ROOT / 'src'}")
        self.workload = workload
        self.work = ROOT / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.started = time.monotonic()
        self.peak_kb = 0
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.env["LONGEDGE_CACHE_DIR"] = str(self.work / "cache-default")
        self._seq = 0
        self.cal: list[float] = []

    def child(self, argv, *, cache=None, measured=True) -> Child:
        """Run argv to completion from the checkout root.  `measured` children
        count towards peak RSS; the output checks do not."""
        env = dict(self.env)
        if cache is not None:
            env["LONGEDGE_CACHE_DIR"] = str(cache)
        self._seq += 1
        out_path = self.work / f"child-{self._seq}.out"
        err_path = self.work / f"child-{self._seq}.err"
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run time limit reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if measured:
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return Child(seconds, proc.returncode, out_path.read_text(),
                     err_path.read_text()[-2000:])

    def required(self, argv, what: str, **kw) -> Child:
        c = self.child(argv, **kw)
        if c.returncode != 0:
            raise BenchError(f"{what} exited {c.returncode}: {c.stderr.strip()}")
        return c

    def write_json(self, name: str, data) -> Path:
        path = self.work / name
        path.write_text(json.dumps(data))
        return path

    def check(self, data: dict) -> dict:
        """Run the output checks in their own process; returns the verdict."""
        inp = self.write_json("check-input.json", data)
        verdict = self.work / "check-verdict.json"
        self.required(
            [PY, str(BENCH / "check.py"), self.workload, str(inp), str(verdict)],
            "output check",
            measured=False,
        )
        return json.loads(verdict.read_text())

    def calibrate(self, mode: str = "plain", times: int | None = None) -> None:
        """Time the calibration job, in set-up and the untraced pass only."""
        if mode != "plain":
            return
        for _ in range(CAL_PER_OP[self.workload] if times is None else times):
            c = self.required([PY, str(BENCH / "calibrate.py")], "calibration",
                              measured=False)
            if c.stdout.strip() != CAL_ANSWER:
                raise BenchError(f"calibration printed {c.stdout.strip()!r}")
            self.cal.append(c.seconds)

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.peak_kb) / 1024


def _traced(run: Run, tag: str, argv: list[str]) -> list[str]:
    """Prefix that runs a CLI command through the tracing wrapper."""
    return [
        PY,
        str(BENCH / "trace_cli.py"),
        str(run.work / f"summary-{tag}.json"),
        str(run.work / f"spans-{tag}.bin"),
        "--",
        *argv,
    ]


def _count(seconds: float, workload: str) -> int:
    return max(1, int(seconds // NOMINAL_S[workload]))


# --- workloads: each returns set-up times and, per pass, one record per
# operation: its seconds, exit code, and output (CLI) or counts (direct) ---


def _record(c: Child) -> dict:
    return {"seconds": c.seconds, "returncode": c.returncode, "stdout": c.stdout}


def table_cold(run: Run, seed: int, seconds: float, passes: list[str]) -> dict:
    """Fresh `coeffs --delta 5` processes, each with an empty cache."""
    setup = []
    for _ in range(SETUP_REPEATS[run.workload]):
        run.calibrate(times=1)
        c = run.required(CLI + ["series", "b1", "--order", "3"], "start-up probe")
        if c.stdout.strip() != "1, -1, -5, 39":
            raise BenchError(f"start-up probe printed {c.stdout.strip()!r}")
        setup.append(c.seconds)
    argv = ["coeffs", "--delta", str(DELTA)]
    ops = {}
    for mode in passes:
        ops[mode] = []
        for i in range(_count(seconds, run.workload)):
            run.calibrate(mode)
            cache = run.work / f"cache-{mode}-{i}"
            cmd = CLI + argv if mode == "plain" else _traced(run, f"{mode}-{i}", argv)
            ops[mode].append(_record(run.child(cmd, cache=cache)))
        run.calibrate(mode)
    return {"setup": setup, "ops": ops, "corpus": None}


def severi_direct(run: Run, seed: int, seconds: float, passes: list[str]) -> dict:
    """n_bruteforce over the corpus, one fresh interpreter per polygon."""
    data = corpus(run.workload, seed, _count(seconds, run.workload))
    corpus_path = run.write_json("corpus.json", data)
    script = [PY, str(BENCH / "direct.py"), str(corpus_path)]
    setup = []
    for _ in range(SETUP_REPEATS[run.workload]):
        run.calibrate(times=1)
        setup.append(run.required(script + ["--setup-only"], "set-up").seconds)
    ops = {}
    for mode in passes:
        ops[mode] = []
        for i in range(len(data["items"])):
            run.calibrate(mode)
            out = run.work / f"direct-{mode}-{i}.json"
            extra = []
            if mode == "traced":
                extra = ["--trace", str(run.work / f"summary-traced-{i}.json"),
                         str(run.work / f"spans-traced-{i}.bin")]
            run.required(script + [str(i), str(out)] + extra, f"severi-direct polygon {i}")
            ops[mode].append({"returncode": 0, **json.loads(out.read_text())})
        run.calibrate(mode)
    return {"setup": setup, "ops": ops, "corpus": data}


def severi_cli(run: Run, seed: int, seconds: float, passes: list[str]) -> dict:
    """Fresh `severi --delta 4` processes over a cache that set-up filled."""
    data = corpus(run.workload, seed, _count(seconds, run.workload))
    delta = str(data["delta"])
    files = [run.write_json(f"polygon-{i}.json", item["polygon"])
             for i, item in enumerate(data["items"])]
    setup = []
    for k in range(SETUP_REPEATS[run.workload]):
        run.calibrate(times=1)
        cache = run.work / f"cache-setup-{k}"
        setup.append(run.required(CLI + ["coeffs", "--delta", delta],
                                  "cache fill", cache=cache).seconds)
    ops = {}
    for mode in passes:
        ops[mode] = []
        for i, path in enumerate(files):
            run.calibrate(mode)
            argv = ["severi", "--polygon", str(path), "--delta", delta]
            cmd = CLI + argv if mode == "plain" else _traced(run, f"{mode}-{i}", argv)
            ops[mode].append(_record(run.child(cmd, cache=cache)))
        run.calibrate(mode)
    return {"setup": setup, "ops": ops, "corpus": data}


WORKLOADS = {
    "table-cold": table_cold,
    "severi-direct": severi_direct,
    "severi-cli": severi_cli,
}


def _layer_metrics(run: Run, wall: dict) -> dict:
    totals = {"self": Counter(), "calls": Counter(), "count": Counter(),
              "distinct": Counter(), "extra": Counter()}
    for path in sorted(run.work.glob("summary-traced*.json")):
        s = json.loads(path.read_text())
        totals["self"].update(s["self_s"])
        totals["calls"].update(s["calls"])
        totals["count"].update(s["counts"])
        totals["distinct"].update(s["distinct"])
        totals["extra"].update({"cli.import.s": s.get("cli.import.s", 0.0)})
    out = {}
    for name, (unit, _, source, key) in PER_LAYER.items():
        if source == "overhead":
            value = wall["traced"] - wall["plain"]
        elif source == "ratio":
            calls = totals["calls"][key]
            value = totals["distinct"][key] / calls if calls else 0.0
        else:
            value = totals[source][key]
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload)
    passes = ["plain", "traced"] if trace else ["plain"]
    res = WORKLOADS[workload](run, seed, seconds, passes)
    records = [op for mode in passes for op in res["ops"][mode]]
    verdict = run.check({"delta": DELTA, "corpus": res["corpus"], "ops": records})
    seconds = {mode: [op["seconds"] for op in res["ops"][mode]] for mode in passes}
    wall = {mode: sum(seconds[mode]) for mode in passes}
    run_level = [p for p in verdict["problems"] if p.startswith("run:")]
    scale = CAL_REF_S / statistics.median(run.cal)
    if trace:
        metrics = _layer_metrics(run, wall)
    else:
        metrics = {
            "setup_s": {"value": scale * statistics.median(res["setup"]), "unit": "s"},
            "wall_s": {"value": scale * wall["plain"], "unit": "s"},
            "op_p50_s": {"value": scale * statistics.median(seconds["plain"]), "unit": "s"},
            "peak_rss_mb": {"value": run.peak_rss_mb(), "unit": "MB"},
        }
    result = {
        "correct": not run_level,
        "attempted": len(records),
        "failed": len(verdict["failed"]),
        "metrics": metrics,
    }
    detail = {"problems": verdict["problems"], "setup_seconds": res["setup"],
              "op_seconds": seconds, "calibration_seconds": run.cal, "scale": scale}
    (run.work / "result.json").write_text(json.dumps({**result, **detail}))
    for problem in verdict["problems"]:
        print(f"{workload}: CHECK FAILED {problem}", file=sys.stderr)
    return result


def _print_human(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:34} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated runner unwinds, so that Run.child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_human(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
