#!/usr/bin/env python3
"""Run the symstress benchmark from the root of a repository checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads: ``grid-pinned``, ``ring-cnv``, ``cli-catalog`` (see workloads.py);
``all`` (the default) runs each in its own process, one after another.

With ``--trace 0`` a run reports the end-to-end metrics: ``setup_s``
(import and building the inputs, the median over this process and
SETUP_SAMPLES - 1 fresh child processes, plus this process's one warm-up op),
``analyze_s`` and ``verify_s`` (mean time of one call over the ops measured
for ``--seconds``: library calls on grid-pinned and ring-cnv, one fresh
``python -m symstress`` process on cli-catalog) and ``peak_rss_mb`` (this
process's peak RSS; on cli-catalog the largest op process).  The render
step's times go to the result file only.  With
``--trace 1`` it times half of ``--seconds`` untraced and half traced, and
reports the per-layer metrics.  Every op's answer is checked; an op with a
wrong answer, an exception or a non-zero exit counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op was correct.  Each run also writes a result file with the
environment record and the samples, mean, median, min and max of every
timing to ``perfbench/out/``,
and a traced run writes its spans there too.  Imports: stdlib, numpy and
symstress from ``src/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("grid-pinned", "ring-cnv", "cli-catalog")
SETUP_SAMPLES = 3
CLI_PROBES = 3
END_TO_END = {"setup_s": "s", "analyze_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
# Per-call times on a small shared machine fall into two modes about 1.4x
# apart, and the share in each mode changes from run to run.  The median of a
# run jumps between the modes; the mean moves smoothly with the share.  Over
# 10 runs the mean's spread (IQR/median) was 0.73-1.03 of the median's on the
# in-process timings and 0.54-0.76 of it on the CLI ones.  setup_s keeps the
# median of its set-ups.
STATISTIC = {"setup_s": "median"}
IMPORT_PROBE = "import time; t = time.perf_counter(); import symstress; print(time.perf_counter() - t)"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    # A child started to take one more set-up sample.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_blas_threads() -> None:
    """One BLAS thread unless the caller chose more, and never more than nproc.

    On a small shared machine a second BLAS thread makes the SVD-bound steps
    vary by several per cent from run to run; one thread keeps them within
    about one.  Children inherit the setting.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.setdefault(var, "1")
        if value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import importlib.util

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
        "commit": _git_commit(),
    }


def _setup(name: str, seed: int, workdir: Path):
    """Import symstress and build the workload's inputs; returns (seconds, workload)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import symstress
    import workloads

    if Path(symstress.__file__).resolve().parent != (SRC / "symstress").resolve():
        raise ImportError(f"symstress was imported from {symstress.__file__}, not from {SRC}")
    wl = workloads.make(name, seed, workdir)
    return time.perf_counter() - t0, wl


def _checked(op):
    try:
        return op()
    except Exception as exc:  # a failed op is counted, not raised
        return {}, [f"{type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def _measure(op, seconds: float, steps: tuple[str, ...], tally: Tally) -> list[float]:
    """Run ops until ``seconds`` have passed and every step has a sample.

    Returns the wall time of each op; step timings go into ``tally``.
    """
    walls: list[float] = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        timings, problems = _checked(op)
        walls.append(time.perf_counter() - t0)
        for key, values in timings.items():
            tally.samples[key].extend(values)
        tally.add(problems)
        missing = any(not tally.samples[s] for s in steps)
        if time.perf_counter() >= end and not (missing and len(walls) < 100):
            return walls


def _summary(values: list[float]) -> dict:
    if not values:
        return {"mean": None, "median": None, "min": None, "max": None, "n": 0, "samples": []}
    return {"mean": statistics.fmean(values), "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def _setup_probes(args: argparse.Namespace, tally: Tally) -> list[float]:
    """Import-and-build times of SETUP_SAMPLES - 1 fresh processes."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        code, stdout, _, _ = run_child(argv)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            tally.add([f"set-up probe exited {code}"])
            continue
        samples.append(json.loads(lines[-1])["setup_s"])
    return samples


def _cli_probes(tally: Tally) -> tuple[list[float], list[float]]:
    """Fresh-process times: ``python -c pass`` and ``import symstress``."""
    from workloads import run_child

    env = dict(os.environ, PYTHONPATH=str(SRC))
    start, imports = [], []
    for _ in range(CLI_PROBES):
        code, _, wall, _ = run_child([sys.executable, "-c", "pass"])
        start.append(wall)
        tally.add([] if code == 0 else [f"python -c pass exited {code}"])
        code, stdout, _, _ = run_child([sys.executable, "-c", IMPORT_PROBE], env)
        if code == 0:
            imports.append(float(stdout))
        tally.add([] if code == 0 else [f"import symstress exited {code}"])
    return start, imports


def _traced_metrics(args, wl, tally: Tally) -> tuple[dict, dict]:
    """Untraced then traced ops, then the CLI probes; returns (metrics, report)."""
    import tracer as tracing
    import workloads

    if isinstance(wl, workloads.CliWorkload):
        op = wl.op_in_process
    else:
        def op():  # one call per step, so per-op layer times do not depend on speed
            return wl.op(min_step_s=0.0)
    untraced = _measure(op, args.seconds / 2, wl.steps, tally)
    tr = tracing.Tracer()
    tr.install()
    try:
        def traced_op():
            with tr.span("op"):
                return op()

        traced = _measure(traced_op, args.seconds / 2, wl.steps, tally)
        if isinstance(wl, workloads.LibraryWorkload):
            with tr.span("probe"):
                wl.cli_main_probe()
    finally:
        tr.uninstall()
    python_start, imports = _cli_probes(tally)

    s = tracing.summarize(tr.spans, "op")
    cli = s if isinstance(wl, workloads.CliWorkload) else tracing.summarize(tr.spans, "probe")
    ops = s["roots"]

    def self_per_op(name: str) -> float:
        return s["self_s"][name] / ops

    def calls_per_op(name: str) -> float:
        return s["calls"][name] / ops

    values = {
        "cli.python_start_s": _summary(python_start)["median"],
        "cli.import_s": _summary(imports)["median"],
        "cli.main_s": cli["self_s"]["cli.main"] / max(1, cli["calls"]["cli.main"]),
        "framework.parse_framework_json_s": self_per_op("framework.parse_framework_json"),
        "framework.check_planarity_s": self_per_op("framework.check_planarity"),
        "framework.rigidity_matrix_s": self_per_op("framework.rigidity_matrix"),
        "framework.rigidity_matrix_calls": calls_per_op("framework.rigidity_matrix"),
        "symmetry.detect_groups_s": self_per_op("symmetry.detect_groups"),
        "symmetry.census_s": self_per_op("symmetry.census"),
        "symmetry.vertex_permutation_s": self_per_op("symmetry.vertex_permutation"),
        "symmetry.vertex_permutation_calls": calls_per_op("symmetry.vertex_permutation"),
        "symmetry.vertex_permutation_rejects": s["rejects"]["symmetry.vertex_permutation"] / ops,
        "symmetry.edge_permutation_s": self_per_op("symmetry.edge_permutation"),
        "symmetry.edge_permutation_calls": calls_per_op("symmetry.edge_permutation"),
        "symmetry.permutations_per_op": s["verify_vperm_calls"] / max(1, s["verify_group_ops"]),
        "reptheory.character_table_s": self_per_op("reptheory.character_table"),
        "reptheory.character_table_calls": calls_per_op("reptheory.character_table"),
        "counting.analyze_census_s": self_per_op("counting.analyze_census"),
        "numeric.svd_s": self_per_op("numeric.svd"),
        "numeric.svd_calls": calls_per_op("numeric.svd"),
        "numeric.svd_work": s["svd_work"] / ops,
        "numeric.intertwining_residual_s": self_per_op("numeric.intertwining_residual"),
        "numeric.classify_by_irrep_s": self_per_op("numeric.classify_by_irrep"),
        "numeric.verify_self_s": self_per_op("numeric.verify"),
        "render.render_svg_s": self_per_op("render.render_svg"),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.ops": ops,
    }
    units = {k: ("s" if k.endswith("_s") else "count") for k in values}
    units["symmetry.permutations_per_op"] = "calls/op"
    units["numeric.svd_work"] = "m.n.min"
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    # Self time of each layer (module) as a share of the program's time in the
    # ops; the op span's own time is the harness (loading, checks, collections).
    layers: dict[str, float] = defaultdict(float)
    for name, total in s["self_s"].items():
        if name != "op":
            layers[name.split(".")[0]] += total
    shares = {k: {"s_per_op": v / ops, "share": v / s["program_s"]} for k, v in sorted(layers.items())}
    functions = {
        k: {"s_per_op": v / ops, "calls_per_op": s["calls"][k] / ops, "share": v / s["program_s"]}
        for k, v in sorted(s["self_s"].items(), key=lambda kv: -kv[1]) if k != "op"
    }
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tr.write(spans_path)
    report = {"layer_shares": shares, "functions": functions, "harness_s_per_op": s["self_s"]["op"] / ops,
              "spans": str(spans_path.relative_to(ROOT)),
              "op_s_untraced": _summary(untraced), "op_s_traced": _summary(traced)}
    for layer, row in shares.items():
        print(f"layer {layer:<10} {row['s_per_op']:.6f} s/op  {100 * row['share']:5.1f}% of the program's time")
    print(f"harness    {report['harness_s_per_op']:.6f} s/op outside the program's calls")
    for name, row in functions.items():
        print(f"  {name:<34} {row['calls_per_op']:9.2f} calls/op {row['s_per_op']:.6f} s/op "
              f"{100 * row['share']:5.1f}%")
    return metrics, report


def run_one(args: argparse.Namespace) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        build_s, wl = _setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": build_s}))
            return 0
        tally = Tally()
        t0 = time.perf_counter()
        _, problems = _checked(wl.op)  # the warm-up op: checked, not timed
        warm_up_s = time.perf_counter() - t0
        tally.add(problems)
        if args.trace:
            metrics, report = _traced_metrics(args, wl, tally)
        else:
            _measure(wl.op, args.seconds, wl.steps, tally)
            peak_rss_mb = wl.peak_rss_mb()
            builds = [build_s] + _setup_probes(args, tally)
            tally.samples["setup_s"] = [b + warm_up_s for b in builds]
            tally.samples["peak_rss_mb"] = [peak_rss_mb]
            report = {k: _summary(v) for k, v in tally.samples.items()}
            metrics = {}
            for k, u in END_TO_END.items():
                r = report[k]
                stat = STATISTIC.get(k, "mean")
                metrics[k] = {"value": r[stat], "unit": u}
                print(f"metric {k} = {r[stat]} {u}  ({stat} of {r['n']}; median {r['median']}, "
                      f"min {r['min']}, max {r['max']})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    correct = tally.failed == 0
    print(f"error_rate = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "attempted": tally.attempted, "failed": tally.failed,
              "error_rate": tally.failed / tally.attempted, "problems": tally.problems, "report": report}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; prints a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "symstress" / "__init__.py").is_file():
        print(f"perfbench: no symstress sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
