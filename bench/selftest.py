"""Self-test of the benchmark's checks: a wrong expected answer must make
its operation fail.

    python3 bench/selftest.py

Run from the root of a tumorsym checkout.  For each workload it runs one
round in a worker, checks it against the true answers (everything passes
except the known figure fault), then perturbs each expected answer in turn
(an int by +1, a float x to 2x+1, a list at its first entry, a list of
failing checks by one entry) and checks the same outputs again: every
perturbation must add a failure that the true answers did not give.  It
also alters one output digest (a later round that differs from the checked
output) and checks that BENCHMARK.json names exactly the metrics run.py
reports.
Exits 1 if any perturbation goes unnoticed.
"""

import copy
import json
import os
import shutil
import sys

import checks
import inputs
import run


def perturb(value):
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 2.0 * value + 1.0
    if all(isinstance(v, str) for v in value):
        return value[1:] if value else ["orbit"]
    head = value[0]
    if isinstance(head, list):
        return [head[:-1] + [perturb(head[-1])]] + value[1:]
    return [perturb(head)] + value[1:]


def one_round(workload, seed, root, workdir):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    os.makedirs(os.path.join(workdir, "configs"))
    for name, text in inputs.verify_configs(seed).items():
        with open(os.path.join(workdir, "configs", f"{name}.ini"), "w") as fh:
            fh.write(text)
    worker = run.Worker([sys.executable, run.WORKER, "run", workload,
                         str(seed), workdir], env)
    try:
        worker.ask()
        ops = worker.ask("round 0")["ops"]
        worker.ask("stop None")
    finally:
        worker.close()
    return ops


def benchmark_names(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if [m["name"] for m in spec["per_layer"]] != \
            [n for n, _ in run.per_layer_metrics()]:
        problems.append("per_layer names differ from run.per_layer_metrics()")
    if {m["name"] for m in spec["end_to_end"]} != set(run.END_TO_END):
        problems.append("end_to_end names differ from run.END_TO_END")
    if [w["name"] for w in spec["workloads"]] != list(inputs.WORKLOADS):
        problems.append("workload names differ from inputs.WORKLOADS")
    return problems


def main():
    root, seed = os.getcwd(), 7
    missed = benchmark_names(root)
    for problem in missed:
        print(f"FAIL {problem}")
    for workload in inputs.WORKLOADS:
        workdir = os.path.join(root, run.OUT_DIR, f"selftest-{os.getpid()}")
        try:
            ops = one_round(workload, seed, root, workdir)
            truth = checks.answers(workload, seed)
            base = {}
            for name, _, payload in ops:
                bad = checks.Checker(workload, truth, workdir).check(
                    name, payload)
                if bad and not checks.known_fault(workload, bad):
                    missed.append(f"{workload} {name} fails unperturbed")
                base[name] = set(bad)
            for name, _, payload in ops:
                cases = [(key, {**truth, name: {**truth[name],
                                                key: perturb(value)}})
                         for key, value in truth[name].items()]
                for key, answers in cases:
                    bad = checks.Checker(workload, answers, workdir).check(
                        name, payload)
                    ok = bool(set(bad) - base[name])
                    print(f"{'ok  ' if ok else 'MISS'} {workload:8s} "
                          f"{name:24s} {key:18s} -> "
                          f"{bad[-1] if ok else 'still passes'}"[:150])
                    if not ok:
                        missed.append(f"{workload} {name} {key}")
                if "digest" in payload:
                    tampered = dict(payload, digest="0" * 64)
                    bad = checks.Checker(workload, truth, workdir).check(
                        name, tampered)
                    if not set(bad) - base[name]:
                        missed.append(f"{workload} {name} digest")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(missed)} perturbation(s) unnoticed" if missed
          else "every perturbation made its operation fail")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
