"""Benchmark for apcong: time to an exact, checked answer on seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload group-scale --seed 1 --seconds 40 --trace 0

Every case runs in a process forked from one that has only imported apcong,
so each pays the module-level caches a command-line user pays; the timer
wraps only `apcong.cli.main(argv)` or `discover.closed_loop_check(...)`.
Passes over the case list repeat while the time allows and each case reports
its median.  With `--trace 1` every untraced execution is followed by a
traced one of the same input; the traced ones record per-layer metrics (see
layers.py) and their output must match the untraced output byte for byte.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  README.md in this directory
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 165.0  # every run must end well inside 180 s
SETUP_PROBES = 5

# a forked case must not inherit BLAS worker threads; apcong uses no BLAS call
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def import_program():
    """Import apcong from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import apcong
    import apcong.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(apcong.__file__).resolve().parent.parent != src:
        raise ImportError(f"apcong imported from {apcong.__file__}, not {src}")


def fork_call(fn, deadline: float):
    """Run fn() in a forked child and return (its JSON result or None, note)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        code = 1
        try:
            os.close(r)
            signal.alarm(max(1, int(deadline - time.perf_counter())))
            payload = json.dumps(fn())
            with os.fdopen(w, "w") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:  # drain before waiting: the payload can be large
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        return None, f"killed by signal {os.WTERMSIG(status)}"
    if os.WEXITSTATUS(status) != 0 or not data:
        return None, f"child exited with status {os.WEXITSTATUS(status)}"
    return json.loads(data), ""


def run_case(case: dict, variant: int, traced: bool) -> dict:
    """Body of a forked child: one case, timed around the program call only."""
    import apcong.cli
    import apcong.discover
    import apcong.matgrp

    text_in = case["inputs"][variant % len(case["inputs"])]
    group = None
    if case["verb"] == "closed_loop":
        group = apcong.matgrp.group_from_json(json.loads(text_in))
    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text_in or "")
    error = result = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if group is not None:
                result = apcong.discover.closed_loop_check(
                    group, n=case["n"], seed=case["sample_seed"])
                rc = 0
            else:
                rc = apcong.cli.main(case["argv"])
        except Exception:
            rc, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
    text = out.getvalue()
    if result is not None:
        text = json.dumps({"ok": result.ok, "order": result.group_order,
                           "predicted_zero": str(result.predicted_zero),
                           "modulus": result.modulus})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rc": rc, "s": elapsed, "rss_mb": rss_mb, "out": text,
            "err": (error or err.getvalue())[-2000:],
            "layers": tracer.metrics() if tracer else None}


class Samples:
    """Every execution of every case in one run, with the failures found."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.traced_times: list[list[float]] = [[] for _ in range(n)]
        self.layers: list[list[dict]] = [[] for _ in range(n)]
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def execute(self, cases, i, variant, traced, deadline, reference=None):
        """Run case i once in a fresh fork, check it and record it."""
        from cases import check

        case = cases[i]
        got, note = fork_call(lambda: run_case(case, variant, traced), deadline)
        self.attempted += 1
        if got is None:
            self.failures.append((case["id"], [note]))
            return None
        problems = check(case, got["rc"], got["out"])
        if problems and got["err"].strip():
            problems.append(got["err"].strip().splitlines()[-1])
        if reference is not None and got["out"] != reference:
            problems.append("output differs between traced and untraced runs")
        if traced:
            self_sum = sum(v for k, v in got["layers"].items() if k.endswith(".self_s"))
            if self_sum > got["s"] + 1e-9:
                problems.append(f"self times add to {self_sum} s > case time {got['s']} s")
        if problems:
            self.failures.append((case["id"], problems))
            return got
        if traced:
            self.traced_times[i].append(got["s"])
            self.layers[i].append(got["layers"])
        else:
            self.times[i].append(got["s"])
            self.rss_mb = max(self.rss_mb, got["rss_mb"])
        return got


def measure(cases, seconds, trace, deadline) -> Samples:
    """Run the cases round robin, one full pass at least, while time remains.

    Pass k feeds each case its k-th input variant.  With trace, every case
    keeps its first input, so call counts repeat exactly, and every untraced
    execution is followed by a traced one.
    """
    s = Samples(len(cases))
    start = time.perf_counter()
    cost = [0.0] * len(cases)
    k = 0
    while True:
        i, variant = k % len(cases), 0 if trace else k // len(cases)
        now = time.perf_counter()
        if k >= len(cases) and (now - start + cost[i] > seconds
                                or now + cost[i] > deadline):
            return s
        got = s.execute(cases, i, variant, False, deadline)
        if trace:
            s.execute(cases, i, variant, True, deadline,
                      reference=None if got is None else got["out"])
        cost[i] = time.perf_counter() - now
        k += 1


def medians(samples: list[list[float]]) -> list[float]:
    """Median time of each case; a case with no good execution counts as 0."""
    return [statistics.median(t) if t else 0.0 for t in samples]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters doing imports plus input generation."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=60, check=False)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with status {proc.returncode}")
    return statistics.median(samples)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                sha = path.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                lines = packed.read_text().splitlines() if packed.is_file() else []
                sha = next((ln.split()[0] for ln in lines
                            if ln.endswith(" " + ref[5:])), None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_sha": sha}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the inputs, then exit (set-up probe)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import cases as cases_mod
    import layers

    if args.workload not in cases_mod.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        import_program()
        cases_mod.build(args.workload, args.seed)
        return 0

    setup_s = measure_setup(args.workload, args.seed)
    import_program()
    deadline = T_START + HARD_LIMIT_S
    # inputs are generated in a child so this process keeps the module state
    # of a freshly imported apcong for every forked case
    cases, note = fork_call(lambda: cases_mod.build(args.workload, args.seed), deadline)
    if cases is None:
        raise SystemExit(f"input generation failed: {note}")

    s = measure(cases, args.seconds, args.trace, deadline)
    med = medians(s.times)
    wall_s = sum(med)
    verbs: dict[str, float] = {}
    for case, t in zip(cases, med):
        verbs[case["verb"] + "_s"] = verbs.get(case["verb"] + "_s", 0.0) + t

    if args.trace:
        per_case = [{k: statistics.median(m[k] for m in runs) for k in runs[0]}
                    for runs in s.layers if runs]
        total = layers.merge(per_case)
        metrics = {name: {"value": total.get(name, 0.0), "unit": unit}
                   for name, unit in layers.metric_units().items()}
        overhead = sum(medians(s.traced_times)) - wall_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / wall_s if wall_s else 0.0,
                                           "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": s.rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    for case_id, problems in s.failures:
        print(f"FAILED {case_id}: {'; '.join(problems)}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "cases": len(cases),
              "executions_per_case": [min(map(len, s.times)), max(map(len, s.times))],
              "per_verb_s": verbs, "failed_share": len(s.failures) / s.attempted,
              "elapsed_s": time.perf_counter() - T_START, "env": environment()}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not s.failures, "attempted": s.attempted,
                      "failed": len(s.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        sys.exit(1)
