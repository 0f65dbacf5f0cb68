"""Benchmark inputs, shared by run.py and the worker.

Every input is a fixed acceptance-suite case; the seed only draws the
sensitivity override of the verify workload, the order of the operations
inside each round and the figure cells compared against mpmath.  None of
these changes how much work a round does, so runs on different seeds are
comparable.
"""

import hashlib
import os
import random

WORKLOADS = ("verify", "figures", "oracles")

# Free parameters of the five families at the acceptance-suite values.
ACCEPTANCE = {
    "full413": dict(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0,
                    sigma0=-3.0, delta=1.0),
    "stationary413s": dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0),
    "moving442": dict(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0),
    "moving444": dict(c1=0.1, delta=1.0, n=-2.0, lam=1.0),
    "steady432": dict(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0,
                      lam=4.0, d0=2.0),
}

# The sample set written into every verify config (the program's defaults,
# stated explicitly so the expected sample counts follow from the input).
SAMPLES = dict(times=(1.0,), n_r=12, n_theta=8)

# The published figures: family, parameters, panels (name, component, t).
FIG12 = dict(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0, sigma0=-3.0,
             delta=1.0)
FIG34 = dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0)
FIG5 = dict(c3=1.0, c4=-2.5, n=2.0, lam=4.0, d0=8.0)
FIGURES = {
    1: ("full413", FIG12, (("u1", 1, 2.0), ("u2", 2, 2.0))),
    2: ("full413", FIG12, (("alpha", 0, 2.0), ("p", 3, 2.0))),
    3: ("stationary413s", FIG34, (("u1", 1, 1.0), ("u2", 2, 1.0))),
    4: ("stationary413s", FIG34, (("alpha", 0, 1.0), ("p", 3, 1.0))),
    5: ("stationary413s", FIG5, (("alpha_t1", 0, 1.0),
                                 ("alpha_t10", 0, 10.0))),
}
GRID = 80                # the CLI's default grid
R_MIN_FRACTION = 1e-2    # inner rim of the plotted annulus
MPMATH_CELLS = 8         # seeded cells per panel compared against mpmath

# The independent cross-checks of the oracles workload.
ORACLES = tuple(f"xeng:{fid}" for fid in ACCEPTANCE) + (
    "expint", "pressure:stationary413s", "pressure:steady432",
    "ode:gauss", "ode:power", "lift")
EXPINT_GRID = [(a, r, delta) for a in (0.03125, 0.125, 0.5, 2.0)
               for r in (0.01, 0.1, 0.5, 0.99)
               for delta in (1.0, 0.67032, 12.182)]
PRESSURE_RADII = (0.1, 0.3, 0.5)     # plus the front radius delta
ODE_GAUSS = dict(lam=4.0, d0=2.0, n=2.0, sigma0=-0.6, c1=5.288866935008417,
                 r_in=0.1, r_out=2.0)
ODE_GAUSS_RADII = tuple(0.1 + 0.1 * k for k in range(20))
ODE_POWER = dict(m=1.0, n=3.0, c1=2.0, lam=1.0, sigma0=-1.0, r0=1.0, r1=2.0)
ODE_POWER_RADII = tuple(1.0 + 0.05 * k for k in range(21))
LIFT_FAMILIES = ("full413", "stationary413s", "steady432")
LIFT_POINTS = tuple((t, x, y) for t in (1.0, 2.0)
                    for (x, y) in ((0.06, 0.08), (0.3, 0.4)))

# Rounds a run must hold, so that it has at least 40 operations, and the
# percentile reported as op_tail_s: the highest with at least 10
# operations beyond it at that minimum.
MIN_ROUNDS = {"verify": 7, "figures": 20, "oracles": 4}
TAIL_PERCENTILE = {"verify": 75, "figures": 90, "oracles": 75}


def s0_override(seed):
    """The seeded s0 of the sensitivity config: 0.5 to 1.0 off the true
    value of stationary413s (-0.2), in either direction."""
    rng = random.Random(f"s0:{seed}")
    shift = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
    return round(-0.2 + shift, 4)


def verify_configs(seed):
    """The six verify inputs as {name: INI text}."""
    samples = ("[samples]\ntimes = 1.0\nn_r = {n_r}\nn_theta = {n_theta}\n"
               .format(**SAMPLES))
    out = {}
    for fid, params in ACCEPTANCE.items():
        body = "".join(f"{k} = {v!r}\n" for k, v in params.items())
        out[fid] = f"[family]\nid = {fid}\n{body}\n{samples}"
    body = "".join(f"{k} = {v!r}\n"
                   for k, v in ACCEPTANCE["stationary413s"].items())
    out["stationary413s+s0"] = (
        f"[family]\nid = stationary413s\n{body}s0 = {s0_override(seed)!r}\n"
        f"\n{samples}")
    return out


def op_names(workload):
    if workload == "verify":
        return tuple(verify_configs(0))
    if workload == "figures":
        return tuple(str(n) for n in FIGURES)
    return ORACLES


def round_order(workload, seed, index):
    """The operations of round ``index`` in their seeded order."""
    names = list(op_names(workload))
    random.Random(f"order:{seed}:{index}").shuffle(names)
    return names


def points(workload, name):
    """Checked points of one operation: sample points where residuals are
    assembled (verify), grid cells written (figures), compared jet entries
    or values (oracles)."""
    s = SAMPLES
    if workload == "verify":
        area = s["n_r"] * s["n_theta"] * len(s["times"])
        # governing + front ring + 64 reduced radii + the reduced front
        # conditions + the rotation orbit
        return area + s["n_theta"] * 8 * len(s["times"]) + 64 + 1 + area
    if workload == "figures":
        return 2 * GRID * GRID
    kind, _, arg = name.partition(":")
    return {"xeng": 96 * 24,  # default annulus sample set, 24 jet entries
            "expint": len(EXPINT_GRID),
            "pressure": len(PRESSURE_RADII) + 1,
            "ode": 2 * len(ODE_GAUSS_RADII) if arg == "gauss"
            else len(ODE_POWER_RADII),
            "lift": len(LIFT_FAMILIES) * len(LIFT_POINTS) * 4}[kind]


def digest(directory):
    """SHA-256 over the names and bytes of the files in ``directory``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
