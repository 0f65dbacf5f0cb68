"""Command-line interface: exit codes, report files, CSV shape and
byte-level determinism."""

import dataclasses
import filecmp
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from tumorsym import cli
from tumorsym.cli import main
from tumorsym.jets import AnalyticEngine
from tumorsym.solutions import FAMILY_IDS

FIG34_BODY = """\
[family]
id = stationary413s
c3 = 5.0
c4 = 2.0
n = 2.0
lam = 4.0
d0 = 2.0

[samples]
times = 1.0
n_r = 6
n_theta = 4
"""

STEADY_BODY = """\
[family]
id = steady432
c1 = 1.0
c3 = 1.0
delta = 1.0
m_exp = 1.0
n_exp = 2.0
lam = 4.0
d0 = 2.0

[samples]
times = 1.0
n_r = 6
n_theta = 4
"""


def _write(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


# -- validate ---------------------------------------------------------------

def test_validate_reports_derived_constants(tmp_path, capsys):
    cfg = _write(tmp_path, FIG34_BODY)
    rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "family: stationary413s" in out
    assert "given   c3 = 5.0" in out
    assert "derived delta = 0.6703200460356393" in out
    payload = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert payload["derived"]["delta"] == pytest.approx(
        0.6703200460356393, rel=1e-15)
    assert payload["derived"]["s0"] == pytest.approx(-0.2, rel=1e-14)


def test_validate_restriction_violation(tmp_path, capsys):
    cfg = _write(tmp_path, FIG34_BODY.replace("n = 2.0", "n = 1.0"))
    rc = main(["validate", "--config", cfg])
    assert rc == 1
    assert "restriction violated" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, hint", [
    (lambda b: b.replace("[samples]", "[bogus]"), "unknown section"),
    (lambda b: b.replace("c3 = 5.0", "c3 = 5.0\nzz = 1.0"), "unknown key"),
    (lambda b: b.replace("c3 = 5.0\n", ""), "missing parameter"),
    (lambda b: b.replace("stationary413s", "nosuchfamily"),
     "unknown family"),
    (lambda b: b.replace("c3 = 5.0", "c3 = five"), "non-numeric"),
    (lambda b: b.replace("times = 1.0", "times = -1.0"), "positive"),
], ids=["section", "key", "missing", "family", "numeric", "times"])
def test_validate_config_errors(tmp_path, capsys, mutate, hint):
    cfg = _write(tmp_path, mutate(FIG34_BODY))
    rc = main(["validate", "--config", cfg])
    assert rc == 2
    assert hint.split()[0] in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    "[engine]\nkind = fd\nh = small\n",
    "[engine]\nscheme_order = 4.5\n",
    "[tolerances]\ngoverning = tight\n",
    "[orbit]\nelement = rotation\neps = half\n",
], ids=["engine-h", "scheme-order", "tolerance", "orbit-eps"])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, extra):
    cfg = _write(tmp_path, FIG34_BODY + "\n" + extra)
    for command in ("validate", "verify", "orbit"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


def _family_body(family_id, **params):
    return f"[family]\nid = {family_id}\n" + "".join(
        f"{k} = {v!r}\n" for k, v in params.items())


_M444 = dict(delta=1.0, lam=1.0)
_STAT = dict(c3=5.0, c4=2.0, n=2.0, lam=4.0, d0=2.0)
_STEADY = dict(c1=1.0, c3=1.0, delta=1.0, m_exp=1.0, n_exp=2.0, lam=4.0,
               d0=2.0)
_M442 = dict(c1=0.1, delta=1.0, m=1.0, n=3.0, lam=1.0)
_FULL = dict(c1=1.0, c3=0.5, c4=5.0, n=3.0, d0=0.75, lam=4.0, sigma0=-3.0,
             delta=1.0)


@pytest.mark.parametrize("family_id, params, hint", [
    ("moving444", dict(_M444, c1=-0.1, n=2.5), "c1 must be positive"),
    ("moving444", dict(_M444, c1=0.0, n=-2.0), "c1 must be positive"),
    ("moving444", dict(_M444, c1=-0.1, n=-2.0), "c1 must be positive"),
    ("moving444", dict(_M444, c1=-0.1, n=3.0), "c1 must be positive"),
    ("stationary413s", dict(_STAT, c3=1e-3, c4=-1.0), ""),
    ("steady432", dict(_STEADY, d0=1e-6), ""),
    ("moving442", dict(_M442, c1=1e-300), ""),
    ("full413", dict(_FULL, c1=1e300), ""),
], ids=["444-fractional-n", "444-zero-c1", "444-negative-c1-n-2",
        "444-negative-c1-n3", "413s-overflow", "432-overflow",
        "442-overflow", "413-overflow"])
def test_bad_family_parameters_end_in_a_message(tmp_path, capsys,
                                                family_id, params, hint):
    cfg = _write(tmp_path, _family_body(family_id, **params))
    for command in ("validate", "verify"):
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("restriction violated:") and hint in err


def test_validate_reports_an_overflowing_derived_constant(tmp_path, capsys):
    """full413 builds, but its reported c3_regular needs c1^n = 1e325."""
    cfg = _write(tmp_path, _family_body("full413", **dict(_FULL, c1=1e250,
                                                         n=1.3)))
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("restriction violated:")


@pytest.mark.parametrize("family_id, params", [
    ("stationary413s", dict(_STAT, c4=math.nan)),
    ("stationary413s", dict(_STAT, lam=math.inf)),
    ("moving442", dict(_M442, delta=-math.inf)),
    ("stationary413s", dict(_STAT, s0=math.nan)),
], ids=["c4-nan", "lam-inf", "delta-minus-inf", "s0-nan"])
def test_non_finite_family_parameter_exits_2(tmp_path, capsys, family_id,
                                             params):
    cfg = _write(tmp_path, _family_body(family_id, **params))
    for command in ("validate", "verify"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be finite" in err


_EXTREME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-300, -1e-300,
                     1e300, -1e300, 5e-324, 1.7976931348623157e308]),
    st.floats(-10.0, 10.0))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family_id=st.sampled_from(sorted(FAMILY_IDS)),
       values=st.lists(_EXTREME, min_size=8, max_size=8))
@example(family_id="moving444", values=[-0.1, 1.0, 2.5, 1.0])
@example(family_id="moving444", values=[0.0, 1.0, -2.0, 1.0])
@example(family_id="stationary413s", values=[1e-3, -1.0, 2.0, 4.0, 2.0])
@example(family_id="steady432",
         values=[1.0, 1.0, 1.0, 1.0, 2.0, 4.0, 1e-6])
@example(family_id="moving442", values=[1e-300, 1.0, 1.0, 3.0, 1.0])
@example(family_id="full413",
         values=[1e300, 0.5, 5.0, 3.0, 0.75, 4.0, -3.0, 1.0])
@example(family_id="full413",
         values=[1e250, 0.5, 5.0, 1.3, 0.75, 4.0, -3.0, 1.0])
def test_validate_fuzz_ends_in_an_exit_code(tmp_path, capsys, family_id,
                                            values):
    """Any numbers for a family's free parameters end in exit 0, 1 or 2,
    never in an uncaught exception or a traceback."""
    params = dict(zip(FAMILY_IDS[family_id].params(), values))
    cfg = _write(tmp_path, _family_body(family_id, **params))
    assert main(["validate", "--config", cfg]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["validate", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


# -- verify -----------------------------------------------------------------

def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, FIG34_BODY + f"\n[output]\ndir = {out}\n")
    rc = main(["verify", "--config", cfg])
    assert rc == 0
    assert "all checks passed" in capsys.readouterr().out
    payload = json.loads(os.path.join(out, "verify.json")
                         and (tmp_path / "out" / "verify.json").read_text())
    assert payload["failures"] == []
    assert payload["governing"]["engine"] == "analytic"
    assert set(payload["governing"]["equations"]) == {
        "mass", "divergence", "momentum_x", "momentum_y"}


def test_verify_detects_overridden_link(tmp_path, capsys):
    body = FIG34_BODY.replace("d0 = 2.0", "d0 = 2.0\ns0 = -0.199")
    cfg = _write(tmp_path, body)
    rc = main(["verify", "--config", cfg])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().err


def test_verify_tight_tolerance_fails(tmp_path, capsys):
    cfg = _write(tmp_path, FIG34_BODY + "\n[tolerances]\ngoverning = 1e-17\n")
    assert main(["verify", "--config", cfg]) == 1
    capsys.readouterr()


def test_verify_s0_override_reaches_only_the_governing_check(tmp_path,
                                                            capsys):
    """The override is a sensitivity run on the governing equations; the
    reduced checks use the family's own triplet and do not move."""
    reports = {}
    for name, body in (("base", FIG34_BODY), ("s0", FIG34_BODY.replace(
            "d0 = 2.0", "d0 = 2.0\ns0 = -0.199"))):
        out = tmp_path / name
        main(["verify", "--config", _write(tmp_path, body, f"{name}.ini"),
              "--out", str(out)])
        reports[name] = json.loads((out / "verify.json").read_text())
    capsys.readouterr()
    failures = reports["s0"]["failures"]
    assert len(failures) == 1 and failures[0].startswith("governing Linf")
    for block in ("reduced", "reduced_bc"):
        assert reports["s0"][block] == reports["base"][block]


_OVERFLOW_BODY = FIG34_BODY.replace("lam = 4.0", "lam = 1e308")


def test_verify_counts_an_unsummable_residual_as_nan(tmp_path, capsys):
    """lam = 1e308 makes sigma0 = s0 = -inf: the residual terms hold
    inf - inf, which fails the gates instead of ending in a traceback."""
    cfg = _write(tmp_path, _OVERFLOW_BODY)
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "FAIL governing Linf nan" in err and "Traceback" not in err


_NO_BOUND = "FAIL orbit: no finite bound, the base residual is NaN"


def test_verify_reports_no_orbit_bound_for_a_nan_residual(tmp_path,
                                                          capsys):
    cfg = _write(tmp_path, _OVERFLOW_BODY)
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines and all(ln.startswith("FAIL ") for ln in lines)
    assert _NO_BOUND in lines
    assert "nan > nan" not in err


def test_orbit_reports_no_bound_for_a_nan_base_residual(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path,
                 _OVERFLOW_BODY + "\n[orbit]\nelement = rotation\n")
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "base Linf=nan orbit Linf=nan allowed=none\n"
    assert captured.err == _NO_BOUND + "\n"
    assert json.loads((out / "orbit.json").read_text())["allowed"] is None


def test_validate_rejects_a_non_finite_derived_constant(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _OVERFLOW_BODY)
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("restriction violated: derived sigma0 = -inf "
                            "is not finite\n")
    assert captured.out == ""
    assert not out.exists()


def test_verify_report_is_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, FIG34_BODY)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["verify", "--config", cfg, "--out", a]) == 0
    assert main(["verify", "--config", cfg, "--out", b]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "verify.json").read_bytes() \
        == (tmp_path / "b" / "verify.json").read_bytes()


def test_verify_steady_family(tmp_path, capsys):
    cfg = _write(tmp_path, STEADY_BODY)
    assert main(["verify", "--config", cfg]) == 0
    assert "all checks passed" in capsys.readouterr().out


class _OneNanEngine:
    """The analytic engine with u1_x NaN at the second point of each call,
    so one row per residual report is NaN and it is not the first."""

    descriptor = "analytic"

    def jet(self, field, t, x, y):
        jet = AnalyticEngine().jet(field, t, x, y)
        u1_x = np.array(jet.u1_x, dtype=float)
        u1_x[1] = math.nan
        return dataclasses.replace(jet, u1_x=u1_x)


def test_verify_fails_on_a_nan_residual(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "AnalyticEngine", _OneNanEngine)
    cfg = _write(tmp_path, FIG34_BODY)
    assert main(["verify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert "FAIL governing Linf nan" in captured.err
    assert "FAIL boundary Linf nan" in captured.err


@pytest.mark.parametrize("extra", [
    "kind = fd\nh = nan\n",
    "kind = fd\nh = 0\n",
    "kind = fd\nh = -1e-4\n",
    "kind = fd\nh = inf\n",
    "kind = fd\nscheme_order = 3\n",
    "scheme_order = 0\n",
], ids=["h-nan", "h-zero", "h-negative", "h-inf", "order-3", "order-0"])
def test_bad_engine_setting_exits_2(tmp_path, capsys, extra):
    """The analytic engine is the only one verify and orbit use, so any
    [engine] section is an unknown section."""
    cfg = _write(tmp_path, FIG34_BODY + "\n[engine]\n" + extra)
    for command in ("validate", "verify", "orbit"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown section(s): engine\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--engine", "fd"], ["orbit", "--engine", "analytic"],
    ["validate", "--engine", "fd"], ["validate", "--tol-scale", "2"],
    ["verify", "--tol-scale", "2"], ["orbit", "--tol-scale", "2"],
], ids=["verify-engine", "orbit-engine", "validate-engine",
        "validate-tol-scale", "verify-tol-scale", "orbit-tol-scale"])
def test_removed_options_exit_2(tmp_path, capsys, argv):
    cfg = _write(tmp_path, FIG34_BODY)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--config", cfg])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- orbit ------------------------------------------------------------------

def test_orbit_requires_section(tmp_path, capsys):
    cfg = _write(tmp_path, FIG34_BODY)
    rc = main(["orbit", "--config", cfg])
    assert rc == 2
    assert "[orbit]" in capsys.readouterr().err


def test_orbit_rotation_passes(tmp_path, capsys):
    body = FIG34_BODY + "\n[orbit]\nelement = rotation\nf = sin\neps = 1.0\n"
    cfg = _write(tmp_path, body)
    rc = main(["orbit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "orbit Linf" in capsys.readouterr().out
    assert (tmp_path / "out" / "orbit.json").exists()


def test_orbit_scale_inapplicable_on_general_triplet(tmp_path, capsys):
    body = STEADY_BODY + "\n[orbit]\nelement = scale\neps = 0.5\n"
    cfg = _write(tmp_path, body)
    rc = main(["orbit", "--config", cfg])
    assert rc == 1
    assert capsys.readouterr().err == (
        "inapplicable symmetry: scale action is not applicable: the "
        "family's constitutive triplet is not power-law\n")


def test_orbit_unknown_element_rejected(tmp_path, capsys):
    body = FIG34_BODY + "\n[orbit]\nelement = teleport\n"
    cfg = _write(tmp_path, body)
    assert main(["orbit", "--config", cfg]) == 2
    capsys.readouterr()


# -- figure -----------------------------------------------------------------

def test_figure_unknown_id(tmp_path, capsys):
    rc = main(["figure", "9", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown figure" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_figure_grid_below_two_exits_2(tmp_path, capsys, grid):
    rc = main(["figure", "3", "--grid", grid, "--out", str(tmp_path)])
    assert rc == 2
    assert "grid must be at least 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("figure", ["2", "4"])
def test_figure_pressure_cells_are_numbers(tmp_path, capsys, figure):
    assert main(["figure", figure, "--grid", "20", "--out",
                 str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / f"fig{figure}_p.csv").read_text().splitlines()[1:]
    cells = [ln.split(",")[2] for ln in lines]
    filled = [v for v in cells if v]
    assert filled
    for v in filled:
        assert repr(float(v)) == v


def test_figure_csv_shape(tmp_path, capsys):
    out = str(tmp_path / "figs")
    rc = main(["figure", "3", "--grid", "24", "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith("fig3_u1.csv") for p in printed)
    lines = (tmp_path / "figs" / "fig3_u1.csv").read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 24 * 24
    masked = [ln for ln in lines[1:] if ln.endswith(",")]
    filled = [ln for ln in lines[1:] if not ln.endswith(",")]
    assert masked and filled
    # unmasked cells round-trip through repr
    for ln in filled[:8]:
        x, y, v = ln.split(",")
        assert repr(float(v)) == v
        assert repr(float(x)) == x
    meta = json.loads((tmp_path / "figs" / "fig3_meta.json").read_text())
    assert meta["family"] == "stationary413s"
    assert meta["grid"] == 24


def test_figure_is_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["figure", "4", "--grid", "16", "--out", a]) == 0
    assert main(["figure", "4", "--grid", "16", "--out", b]) == 0
    capsys.readouterr()
    for name in ("fig4_alpha.csv", "fig4_p.csv", "fig4_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name


def test_figure_annulus_masking_geometry(tmp_path, capsys):
    out = str(tmp_path / "figs")
    assert main(["figure", "3", "--grid", "16", "--out", out]) == 0
    capsys.readouterr()
    delta = 0.6703200460356393
    for ln in (tmp_path / "figs" / "fig3_u1.csv").read_text() \
            .splitlines()[1:]:
        x, y, v = ln.split(",")
        r = (float(x) ** 2 + float(y) ** 2) ** 0.5
        inside = 1e-2 * delta <= r <= delta
        assert (v != "") == inside
