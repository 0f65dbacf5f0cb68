"""Benchmark of tumorsym: verdicts (verify), figures and oracles.

    python3 bench/run.py --workload verify|figures|oracles --seed N \\
        --seconds S --trace 0|1

Run from the root of a tumorsym checkout; the program is imported from
./src.  Each run starts one fresh worker process (bench/worker.py) that
runs whole rounds of the workload's operations: one warm-up round, then
rounds until S seconds have passed and at least MIN_ROUNDS rounds are in.
Between rounds, while the worker waits, run.py times fresh starts of
the workload's set-up (setup_s).  Every operation's output is checked
against the answers of checks.py.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 a second pass runs one round with spans and one with operation
counters (tracing.py) and the metrics are the per-layer ones.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".bench_out"
SETUP_STARTS = 7         # timed fresh starts per run, after one warm-up start

# Layers timed by the traced run (span names of tracing.py).
LAYERS = ("cli.main", "jets.analytic_jet", "jets.fd_jet", "solutions.values",
          "core_model.eval", "residuals.governing_residual",
          "residuals.boundary_residual", "residuals.cross_engine_check",
          "symmetry.orbit_residual", "reduction.reduced_ode_residual",
          "reduction.steady_residual", "reduction.reduced_bc_residual",
          "reduction.integrate_ode_4_6", "reduction.pressure_from_lambda",
          "numerics.special.exp_over_z_integral",
          "numerics.special.exp_over_z_quadrature",
          "numerics.quadrature.quad_adaptive", "numerics.ode.ode_integrate",
          "numerics.fd.fd_derivative")
COUNTERS = ("numerics.dd.ops", "numerics.dual.ops")
SETUP_STAGES = ("import_s", "config_s", "build_s")
END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "points_per_s",
              "peak_rss_mb", "gate_ratio_max")


def per_layer_metrics():
    """(name, unit) of every metric a --trace 1 run reports."""
    out = [(f"setup.{s}", "s") for s in SETUP_STAGES]
    for name in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(c, "count") for c in COUNTERS]
    out.append(("trace.overhead_s", "s"))
    return out


def reference_loop():
    """Time of a fixed pure-Python loop: shows slow host periods in the log."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Worker:
    """The workload's process; it waits on stdin between commands."""

    def __init__(self, argv, env):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env)

    def ask(self, command=None):
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended on {command!r}")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def timed_start(workload, workdir, env):
    """Wall time from spawning a fresh interpreter until its set-up is
    ready, and the stage times it reports."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "probe", workload,
                             workdir], stdout=subprocess.PIPE, text=True,
                            env=env)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    if proc.wait() != 0 or not line:
        raise RuntimeError("set-up probe failed")
    return elapsed, json.loads(line)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


def run(workload, seed, seconds, trace, root, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    os.makedirs(os.path.join(workdir, "configs"))
    for name, text in inputs.verify_configs(seed).items():
        with open(os.path.join(workdir, "configs", f"{name}.ini"), "w") as fh:
            fh.write(text)
    checker = checks.Checker(workload, checks.answers(workload, seed),
                             workdir)
    refloops = [reference_loop()]
    timed_start(workload, workdir, env)                 # warm-up start
    starts = []
    worker = Worker([sys.executable, WORKER, "run", workload, str(seed),
                     workdir], env)
    attempted, failures = 0, []

    def do_round(index):
        nonlocal attempted
        ops = worker.ask(f"round {index}")["ops"]
        for name, dt, payload in ops:
            attempted += 1
            bad = checker.check(name, payload)
            if bad:
                failures.append((name, bad))
        return ops

    try:
        worker.ask()                                    # ready
        do_round(0)                                     # warm-up round
        due = [seconds * (k + 0.5) / SETUP_STARTS for k in range(SETUP_STARTS)]
        measured, index = [], 1
        t0 = time.perf_counter()
        while True:
            measured += do_round(index)
            index += 1
            while due and time.perf_counter() - t0 >= due[0]:
                due.pop(0)
                starts.append(timed_start(workload, workdir, env))
                refloops.append(reference_loop())
            if (time.perf_counter() - t0 >= seconds and not due
                    and index - 1 >= inputs.MIN_ROUNDS[workload]):
                break
        traced, spans_path = [], None
        if trace:
            spans_path = os.path.join(os.path.dirname(workdir),
                                      f"spans-{workload}.json")
            worker.ask("spans")
            traced = do_round(index)
            worker.ask("counters")
            do_round(index + 1)
        final = worker.ask(f"stop {spans_path}")
    finally:
        worker.close()
    refloops.append(reference_loop())

    rounds = index - 1
    times = [dt for _, dt, _ in measured]
    print(f"# {workload} seed={seed}: {rounds} rounds, {len(times)} timed "
          f"operations, {attempted} checked, {len(failures)} failed")
    print("# reference loop s: " + " ".join(f"{t:.4f}" for t in refloops))
    for name, bad in failures[:5]:
        print(f"# FAILED {name}: {'; '.join(bad[:3])}", file=sys.stderr)

    if not trace:
        points = sum(inputs.points(workload, n) for n, _, _ in measured)
        metrics = {
            "setup_s": (statistics.median(s for s, _ in starts), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (nearest_rank(times,
                                       inputs.TAIL_PERCENTILE[workload]), "s"),
            "points_per_s": (points / sum(times), "1/s"),
            "peak_rss_mb": (final["peak_rss_mb"], "MB"),
            "gate_ratio_max": (max(checker.ratios), "1"),
        }
    else:
        spans, counts = final["trace"]["spans"], final["trace"]["counts"]
        values = {f"setup.{s}": statistics.median(st[s] for _, st in starts)
                  for s in SETUP_STAGES}
        for name in LAYERS:
            calls, self_s = spans.get(name, (0, 0.0))
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        for name in COUNTERS:
            values[name] = counts.get(name, 0)
        values["trace.overhead_s"] = (
            statistics.median(dt for _, dt, _ in traced)
            - statistics.median(times))
        metrics = {n: (values[n], u) for n, u in per_layer_metrics()}
    correct = all(checks.known_fault(workload, bad) for _, bad in failures)
    return {"correct": correct, "attempted": attempted,
            "failed": len(failures),
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tumorsym", "cli.py")):
        print("error: no src/tumorsym here; run from the root of a tumorsym "
              "checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
