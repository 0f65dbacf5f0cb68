"""Derive the polynomial pieces of the exponential-integral kernel.

    python3 tools/fit_ei.py > src/tumorsym/numerics/_ei_pieces.py

writes the module of constants and polynomials that
``tumorsym/numerics/special.py`` combines into Ei.  Each piece is a
Chebyshev fit (``mpmath.chebyfit``, 40 digits) of a smooth function in a
variable centred on the piece, of the least degree whose fit error is below
2^-56.5 relative; the fitted functions and the way the kernel combines
them with ln and exp are stated in the docstring of ``special.py``.  Needs
mpmath; takes a few seconds.
"""

import mpmath
from mpmath import mp, mpf

mp.dps = 40

TARGET = mpf(2) ** mpf(-56.5)
X0 = mp.findroot(mp.ei, mpf("0.3725"))  # the positive root of Ei


def series_q(x):
    """Q(x) = sum_{k>=2} x^(k-2) / (k k!), so that
    Ei(x) = gamma + ln|x| + x + x^2 Q(x) (A&S 5.1.10)."""
    total, term = mpf(0), mpf(1) / 2  # x^(k-2) / k! at k = 2
    for k in range(2, 60):
        total += term / k
        term = term * x / (k + 1)
    return total


def root_r(x):
    """R(x) = (Ei(x) - ln(x / x0)) / (x - x0), an entire function."""
    if abs(x - X0) < mpf(10) ** -20:
        x += mpf(10) ** -18
    return (mp.ei(x) - mp.log(x / X0)) / (x - X0)


def e1_tail(t):
    """y e^y E1(y) at y = 1/t."""
    y = 1 / t
    return y * mp.exp(y) * mp.e1(y)


def ei_tail(t):
    """x e^-x Ei(x) at x = 1/t."""
    x = 1 / t
    return x * mp.exp(-x) * mp.ei(x)


def fit(fun, a, b, centre, degree):
    """Coefficients c0..c_degree of fun(centre + s), s in [a-centre,
    b-centre], and the fit's error relative to fun(centre)."""
    poly, err = mpmath.chebyfit(lambda s: fun(centre + s),
                                [a - centre, b - centre], degree + 1,
                                error=True)
    return [float(c) for c in reversed(poly)], err / abs(fun(centre))


def least_fit(fun, a, b, centre, weight=1):
    """The fit of least degree whose error, times ``weight``, is below
    TARGET."""
    for degree in range(4, 30):
        coefs, err = fit(fun, a, b, centre, degree)
        if err * weight < TARGET:
            return coefs, err * weight
    raise ValueError(f"no fit on [{a}, {b}]")


def _horner(coefs, var):
    """``c0 + var * (c1 + ... + var * cn)`` as wrapped source lines."""
    text = "".join(f"{c!r} + {var} * (" for c in coefs[:-1]) \
        + repr(coefs[-1]) + ")" * (len(coefs) - 1)
    lines, line = [], "    return ("
    for word in text.split(" "):
        if len(line) + 1 + len(word) > 78:
            lines.append(line)
            line = "        " + word
        else:
            line += ("" if line.endswith("(") else " ") + word
    lines.append(line + ")")
    return "\n".join(lines)


def _function(name, doc, coefs, centring):
    out = [f"def {name}(v):", f'    """{doc}"""']
    if centring:
        out.append(f"    s = {centring}")
        out.append(_horner(coefs, "s"))
    else:
        out.append(_horner(coefs, "v"))
    return "\n".join(out)


def _bound(b):
    return "math.inf" if b == mp.inf else repr(float(b))


def _pieces(name, fun, bounds, reciprocal, doc):
    """One least-degree fit per interval of ``bounds``: the functions, the
    list of upper ends and the tuple of functions."""
    funcs, worst = [], mpf(0)
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        a, b = mpf(lo), mpf(hi)
        if reciprocal:
            a, b = (mpf(0) if b == mp.inf else 1 / b), 1 / a
            var = "1.0 / v"
        else:
            var = "v"
        centre = float((a + b) / 2)
        coefs, err = least_fit(fun, a, b, mpf(centre))
        worst = max(worst, err)
        funcs.append(_function(f"{name}_{k}", doc.format(lo=lo, hi=hi),
                               coefs, f"{var} - {centre!r}"))
    upper = ", ".join(_bound(b) for b in bounds[1:])
    names = ", ".join(f"{name}_{k}" for k in range(len(bounds) - 1))
    table = (f"{name.upper()}_BOUNDS = [{upper}]\n"
             f"{name.upper()} = ({names})")
    return "\n\n\n".join(funcs) + "\n\n\n" + table, worst


def _two(name, value):
    hi = float(value)
    return f"{name}_HI, {name}_LO = {hi!r}, {float(value - hi)!r}"


def main():
    # Q enters Ei as x^2 Q, below |Ei| / 64 on the small piece
    small, err_small = least_fit(series_q, mpf(-0.25), mpf(0), mpf(0),
                                 1 / mpf(64))
    near, err_near = least_fit(series_q, mpf(-1), mpf(-0.25), mpf(-0.625))
    e1, err_e1 = _pieces("e1", e1_tail, (1, 1.5, 2.5, 4.5, 7, 10, 16, 32,
                                         64, mp.inf), True,
                         "y e^y E1(y) for {lo} < y <= {hi}.")
    root, err_root = _pieces("root", root_r, (0, 1, 2, 4, 6, 8), False,
                             "R(x) for {lo} <= x < {hi}.")
    tail, err_tail = _pieces("tail", ei_tail, (8, 11, 16, 24, 40, 100, 717),
                             True, "x e^-x Ei(x) for {lo} <= x < {hi}.")
    worst = max(err_small, err_near, err_e1, err_root, err_tail)
    print(f'''"""Polynomial pieces of the exponential-integral kernel of ``special.py``.

Generated by ``python3 tools/fit_ei.py > src/tumorsym/numerics/_ei_pieces.py``
(do not edit): Chebyshev fits of least degree, worst relative fit error
{mpmath.nstr(worst, 2)}.  Each function takes a float or an ndarray.
"""

import math

{_two("GAMMA", mp.euler)}
{_two("X0", X0)}
{_two("LOG_X0", mp.log(X0))}


{_function("small", "Q(x) for -1/4 <= x < 0.", small, None)}


{_function("near", "Q(x) for -1 <= x < -1/4.", near, "v + 0.625")}


{e1}


{root}


{tail}''')


if __name__ == "__main__":
    main()
