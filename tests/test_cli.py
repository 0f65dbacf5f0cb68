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

from tumorsym import cli, jets
from tumorsym.cli import main
from tumorsym.jets import AnalyticEngine
from tumorsym.numerics.dd import DD
from tumorsym.numerics.dual import Dual, value
from tumorsym.solutions import FAMILY_IDS

from support import NON_UNIT_PARAMS, PARAMS

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


@pytest.mark.parametrize("body, message", [
    (FIG34_BODY.replace("[family]\nid = stationary413s\n", "[output]\n"),
     "missing required [family] section"),
    (FIG34_BODY.replace("id = stationary413s\n", ""),
     "[family] needs an 'id' key"),
    (FIG34_BODY.replace("n_r = 6", "n_r = 1.5"),
     "bad [samples] value: invalid literal for int() with base 10: '1.5'"),
    (FIG34_BODY + "\n[orbit]\neps = 0.5\n",
     "[orbit] needs an 'element' key"),
], ids=["no-family", "no-id", "n_r-fraction", "orbit-no-element"])
def test_config_error_message(tmp_path, capsys, body, message):
    cfg = _write(tmp_path, body)
    for command in ("validate", "verify", "orbit"):
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


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


@pytest.mark.parametrize("body, hint", [
    (FIG34_BODY.replace("c4 = 2.0\n", "c4 = 2.0\nc3 = 5.0\n"),
     "option 'c3' in section 'family' already exists"),
    (FIG34_BODY + "\n[family]\nid = stationary413s\n",
     "section 'family' already exists"),
    ("c3 = 5.0\n" + FIG34_BODY, "no section headers"),
    (FIG34_BODY.replace("c4 = 2.0\n", "c4 = 2.0\nc3\n"),
     "parsing errors"),
    (FIG34_BODY.replace("c3 = 5.0", "c3 = 5%"), "bad [family] c3:"),
    ("\ufffe" + FIG34_BODY, "cannot read"),
], ids=["duplicate-key", "duplicate-section", "no-section-header",
        "no-equals", "stray-percent", "ff-fe-bytes"])
def test_malformed_ini_is_a_config_error(tmp_path, capsys, body, hint):
    path = tmp_path / "run.ini"
    # "\ufffe" is the bytes ef bf be in UTF-8; the file must start ff fe
    path.write_bytes(body.encode().replace("\ufffe".encode(), b"\xff\xfe"))
    for command in ("validate", "verify", "orbit"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and hint in err
        assert "Traceback" not in err


def _family_body(family_id, **params):
    return f"[family]\nid = {family_id}\n" + "".join(
        f"{k} = {v!r}\n" for k, v in params.items())


@pytest.mark.parametrize("family_id, params, hint", [
    ("moving444", dict(PARAMS["moving444"], c1=-0.1, n=2.5),
     "c1 must be positive"),
    ("moving444", dict(PARAMS["moving444"], c1=0.0, n=-2.0),
     "c1 must be positive"),
    ("moving444", dict(PARAMS["moving444"], c1=-0.1, n=-2.0),
     "c1 must be positive"),
    ("moving444", dict(PARAMS["moving444"], c1=-0.1, n=3.0),
     "c1 must be positive"),
    ("stationary413s", dict(PARAMS["stationary413s"], c3=1e-3, c4=-1.0), ""),
    ("steady432", dict(PARAMS["steady432"], d0=1e-6), ""),
    ("moving442", dict(PARAMS["moving442"], c1=1e-300), ""),
    ("full413", dict(PARAMS["full413"], c1=1e300), ""),
    ("full413", dict(PARAMS["full413"], c1=1e250, n=1.3), ""),
], ids=["444-fractional-n", "444-zero-c1", "444-negative-c1-n-2",
        "444-negative-c1-n3", "413s-overflow", "432-overflow",
        "442-overflow", "413-overflow", "413-pressure-coefficient-overflow"])
def test_bad_family_parameters_end_in_a_message(tmp_path, capsys,
                                                family_id, params, hint):
    cfg = _write(tmp_path, _family_body(family_id, **params))
    for command in ("validate", "verify"):
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("restriction violated:") and hint in err


def test_validate_reports_an_overflowing_derived_constant(tmp_path, capsys):
    """full413's pressure coefficient, whose sum with the other is the
    reported c3_regular, needs c1^n = 1e325."""
    cfg = _write(tmp_path, _family_body(
        "full413", **dict(PARAMS["full413"], c1=1e250, n=1.3)))
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("restriction violated:")


@pytest.mark.parametrize("family_id, params", [
    ("stationary413s", dict(PARAMS["stationary413s"], c4=math.nan)),
    ("stationary413s", dict(PARAMS["stationary413s"], lam=math.inf)),
    ("moving442", dict(PARAMS["moving442"], delta=-math.inf)),
    ("stationary413s", dict(PARAMS["stationary413s"], s0=math.nan)),
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


def test_verify_takes_one_family_jet_per_sample_time(tmp_path, capsys,
                                                    monkeypatch):
    """The annulus and the front ring of a time share one jet: one
    second-order pass of the family per sample time."""
    calls = _record_passes(monkeypatch)
    cfg = _write(tmp_path, FIG34_BODY.replace("times = 1.0",
                                              "times = 0.5, 1.0, 2.0"))
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    assert [t for kind, t in calls if kind == "pass"] == [0.5, 1.0, 2.0]


def test_verify_rejects_a_repeated_sample_time(tmp_path, capsys):
    """A repeated time would sample its annulus twice (twice the points in
    ``sample_count`` and L2) while ``verify.json`` keeps one front report
    for it: the config is an error, before any check."""
    cfg = _write(tmp_path, FIG34_BODY.replace("times = 1.0",
                                              "times = 1.0, 2.0, 1.0"))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: sample times must be distinct, got 1.0, 2.0, 1.0\n")
    assert not out.exists()


def _record_passes(monkeypatch):
    """The list that records, in order, each second-order ``radial`` pass
    of a family (on double-double points) as ("pass", t), each float
    one as ("float", t), and each time seed of ``radial_alpha`` as
    ("seed", t)."""
    calls = []
    for cls in FAMILY_IDS.values():
        radial, radial_alpha = cls.radial, cls.radial_alpha

        def counted(self, t, w, radial=radial):
            kind = "pass" if isinstance(w.c0, DD) else "float"
            calls.append((kind, value(t)))
            return radial(self, t, w)

        def seeded(self, t, w, radial_alpha=radial_alpha):
            if isinstance(t, Dual):
                calls.append(("seed", value(t)))
            return radial_alpha(self, t, w)

        monkeypatch.setattr(cls, "radial", counted)
        monkeypatch.setattr(cls, "radial_alpha", seeded)
    return calls


# the six configs of the benchmark's verify workload: the five families at
# the acceptance parameters and stationary413s with an overridden s0
_BENCH_CONFIGS = {
    **{fid: _family_body(fid, **params) for fid, params in PARAMS.items()},
    "stationary413s+s0": _family_body("stationary413s",
                                      **PARAMS["stationary413s"])
    + "s0 = -0.8\n"}


@pytest.mark.parametrize("name", sorted(_BENCH_CONFIGS))
def test_verify_is_one_pass_and_one_time_seed(tmp_path, capsys,
                                              monkeypatch, name):
    """The governing annulus, the front ring, the orbit's source points
    and the reduced radii share one pass and one time seed at t = 1; the
    reduced front conditions take one float pass at delta."""
    calls = _record_passes(monkeypatch)
    cfg = _write(tmp_path, _BENCH_CONFIGS[name]
                 + "\n[samples]\ntimes = 1.0\nn_r = 12\nn_theta = 8\n")
    assert main(["verify", "--config", cfg]) in (0, 1)
    capsys.readouterr()
    assert calls == [("pass", 1.0), ("seed", 1.0), ("float", 1.0)]


def test_verify_makes_one_pass_per_source_time(tmp_path, capsys,
                                               monkeypatch):
    """A time translation by 0.5 adds the source times 0.5, 1.5 and 3.5 to
    the sample times 1, 2 and 4: six passes and six time seeds, the
    reduced radii joining the pass at t = 1."""
    calls = _record_passes(monkeypatch)
    cfg = _write(tmp_path, FIG34_BODY.replace("times = 1.0",
                                              "times = 1.0, 2.0, 4.0")
                 + "\n[orbit]\nelement = time-translation\n")
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    times = [1.0, 2.0, 4.0, 0.5, 1.5, 3.5]
    assert calls == [c for t in times for c in (("pass", t), ("seed", t))] \
        + [("float", 1.0)]


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


def test_orbit_over_its_bound_prints_the_fail_line_of_verify(tmp_path,
                                                             capsys):
    cfg = _write(tmp_path, _family_body("full413", **PARAMS["full413"])
                 + "\n[orbit]\nelement = galilei\neps = -4.5\n")
    assert main(["orbit", "--config", cfg]) == 1
    orbit = capsys.readouterr()
    assert "orbit Linf=6.518866e-13 allowed=1.000000e-13" in orbit.out
    assert orbit.err == "FAIL orbit Linf 6.519e-13 > 1.000e-13\n"
    assert main(["verify", "--config", cfg]) == 1
    assert orbit.err in capsys.readouterr().err.splitlines(keepends=True)


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


@pytest.mark.parametrize("c1", ["0.5", "1.5"])
def test_verify_steady_family_at_a_non_unit_c1(tmp_path, capsys, c1):
    cfg = _write(tmp_path, STEADY_BODY.replace("c1 = 1.0", f"c1 = {c1}"))
    assert main(["verify", "--config", cfg]) == 0
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("times", ["1.0", "0.5, 1.0, 2.0"])
@pytest.mark.parametrize("fid", sorted(NON_UNIT_PARAMS))
def test_verify_at_the_non_unit_parameters(tmp_path, capsys, fid, times):
    """With c1 != 1 and delta != 1, where powers of them are seen, four
    families pass; full413 fails only its front and its reduced BC, as at
    the acceptance parameters (its known front fault)."""
    cfg = _write(tmp_path, _family_body(fid, **NON_UNIT_PARAMS[fid])
                 + f"\n[samples]\ntimes = {times}\n")
    code = main(["verify", "--config", cfg])
    err = capsys.readouterr().err.splitlines()
    if fid != "full413":
        assert (code, err) == (0, [])
        return
    assert code == 1
    assert [line.split()[:2] for line in err] == \
        [["FAIL", "boundary"]] * len(times.split(",")) \
        + [["FAIL", "reduced"]]
    assert err[-1].startswith("FAIL reduced BC ")


# every command that writes, with an [orbit] section that orbit needs
_WRITERS = {
    "validate": lambda cfg: ["validate", "--config", cfg],
    "verify": lambda cfg: ["verify", "--config", cfg],
    "orbit": lambda cfg: ["orbit", "--config", cfg],
    "figure": lambda cfg: ["figure", "3", "--grid", "3"],
}


def _no_checks(monkeypatch):
    """Make any check or figure grid end the test: an output error must
    come before them."""
    def refuse(*args, **kwargs):
        pytest.fail("a check ran before the output path was checked")
    monkeypatch.setattr(cli, "governing_and_front_residuals", refuse)
    monkeypatch.setattr(cli, "_figure_grid", refuse)


@pytest.mark.parametrize("command, where", [
    (command, where) for command in sorted(_WRITERS)
    for where in ("the-file", "under-the-file", "output-dir")
    if (command, where) != ("figure", "output-dir")])  # it reads no config
def test_an_output_path_that_is_a_file_exits_2_before_the_checks(
        tmp_path, capsys, monkeypatch, command, where):
    """``--out`` (or ``[output] dir``) naming a file, or a path under a
    file, ends the run with exit 2 and one line naming the path, before
    any check runs and without a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = str(taken if where == "the-file" else taken / "sub")
    if where == "output-dir":
        argv = _WRITERS[command](_write(
            tmp_path, FIG34_BODY + f"\n[output]\ndir = {out}\n"
            "\n[orbit]\nelement = rotation\n"))
    else:
        argv = _WRITERS[command](_write(
            tmp_path, FIG34_BODY + "\n[orbit]\nelement = rotation\n"))
        argv += ["--out", out]
    _no_checks(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"output error: cannot write to {out}: "
                            f"{taken} is not a directory\n")
    assert taken.read_text() == "keep\n"


def test_an_unwritable_output_parent_exits_2_before_the_checks(
        tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, FIG34_BODY)
    out = str(tmp_path / "new" / "dir")
    _no_checks(monkeypatch)
    monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
    assert main(["verify", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"output error: cannot write to {out}: {tmp_path} is not "
        "writable\n")
    assert not (tmp_path / "new").exists()


def test_a_directory_that_cannot_be_made_exits_2(tmp_path, capsys,
                                                  monkeypatch):
    """A failure the path check cannot foresee (a read-only special file
    system, say) still ends in exit 2 and a message, not a traceback."""
    def makedirs(*args, **kwargs):
        raise PermissionError(1, "Operation not permitted")
    monkeypatch.setattr(os, "makedirs", makedirs)
    cfg = _write(tmp_path, FIG34_BODY)
    out = str(tmp_path / "out")
    for argv in (["verify", "--config", cfg, "--out", out],
                 ["figure", "3", "--grid", "3", "--out", out]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot write to {out}: Operation not "
            "permitted\n")


def test_an_output_directory_is_made_before_any_jet(tmp_path, capsys,
                                                    monkeypatch):
    """The output directory is made up front: where that fails (as under
    a pseudo file system that the path check trusts), the run ends with
    exit 2 and a message before any jet is taken."""
    jets_taken = []
    taken = jets.analytic_jets
    monkeypatch.setattr(jets, "analytic_jets", lambda *a: jets_taken.append(
        a) or taken(*a))

    def makedirs(*args, **kwargs):
        raise PermissionError(1, "Operation not permitted")
    monkeypatch.setattr(os, "makedirs", makedirs)
    cfg = _write(tmp_path, FIG34_BODY + "\n[orbit]\nelement = rotation\n")
    out = str(tmp_path / "new" / "out")
    for command in ("verify", "orbit"):
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"output error: cannot write to {out}: Operation not "
            "permitted\n")
    assert jets_taken == []
    assert not (tmp_path / "new").exists()


def test_a_run_without_output_removes_only_the_directories_it_made(
        tmp_path, capsys):
    """``evaluation failed`` writes no report: the directories the run
    made for it go again, and a directory that was there stays."""
    cfg = _write(tmp_path, _family_body("moving444", **PARAMS["moving444"])
                 + "\n[samples]\ntimes = 0.01\nr_min_fraction = 5e-324\n")
    there = tmp_path / "there"
    there.mkdir()
    out = there / "new" / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("evaluation failed: ")
    assert there.is_dir() and list(there.iterdir()) == []


class _OneNanEngine:
    """The analytic engine with u1_x NaN at the second and the last point
    of each call: one call per time holds the annulus and then the front
    ring, so one row per residual report is NaN and it is not the
    first."""

    descriptor = "analytic"

    def jet(self, field, t, x, y):
        jet = AnalyticEngine().jet(field, t, x, y)
        u1_x = np.array(jet.u1_x, dtype=float)
        u1_x[[1, -1]] = math.nan
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


def test_orbit_applies_the_override_as_verify_does(tmp_path, capsys):
    """Both commands check the run's triplet: with s0 overridden, the base
    residual of ``orbit`` is the governing residual of ``verify``."""
    orbit = "\n[orbit]\nelement = rotation\neps = 0.5\n"
    base = {}
    for name, body in (("plain", FIG34_BODY), ("s0", FIG34_BODY.replace(
            "d0 = 2.0", "d0 = 2.0\ns0 = 0.7"))):
        cfg = _write(tmp_path, body + orbit, f"{name}.ini")
        main(["verify", "--config", cfg, "--out", str(tmp_path / name)])
        main(["orbit", "--config", cfg, "--out", str(tmp_path / name)])
        reports = {kind: json.loads((tmp_path / name / f"{kind}.json")
                                    .read_text())
                   for kind in ("verify", "orbit")}
        base[name] = reports["orbit"]["base"]
        assert base[name] == reports["verify"]["governing"]
    capsys.readouterr()
    assert base["s0"]["equations"]["mass"]["linf"] > 1.0
    assert base["plain"]["equations"]["mass"]["linf"] < 1e-8


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


_ORBIT_BODY = FIG34_BODY + "\n[orbit]\nelement = rotation\n"


@pytest.mark.parametrize("body, hint", [
    (FIG34_BODY + "\n[orbit]\nelement = galilei\naxis = z\n",
     "orbit axis must be 'x' or 'y'"),
    (_ORBIT_BODY + "eps = inf\n", "[orbit] eps must be finite, got inf"),
    (_ORBIT_BODY + "eps = nan\n", "[orbit] eps must be finite, got nan"),
    (_ORBIT_BODY.replace("times = 1.0", "times = nan"),
     "sample times must be positive and finite"),
    (_ORBIT_BODY.replace("times = 1.0", "times = 1.0, inf"),
     "sample times must be positive and finite"),
], ids=["galilei-axis-z", "eps-inf", "eps-nan", "times-nan", "times-inf"])
def test_bad_samples_or_orbit_value_exits_2(tmp_path, capsys, body, hint):
    cfg = _write(tmp_path, body)
    for command in ("verify", "orbit"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and hint in err


_OUTSIDE = ("the element maps the samples outside the field's domain: ")


@pytest.mark.parametrize("element, eps, cause", [
    ("time-translation", 1.0, "t must be positive, got 0.0"),
    ("scale", 400.0, "math range error"),
    ("scale", 200.0, "math range error"),
], ids=["time-translation-to-t0", "scale-overflow", "scale-pull-overflow"])
def test_orbit_outside_the_field_domain_fails_the_check(tmp_path, capsys,
                                                       element, eps, cause):
    """An element that maps the samples where the field cannot be
    evaluated fails the orbit check like an inapplicable one: exit 1, a
    message, no orbit report and no traceback."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, FIG34_BODY
                 + f"\n[orbit]\nelement = {element}\neps = {eps!r}\n")
    assert main(["orbit", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"inapplicable symmetry: {_OUTSIDE}{cause}\n"
    assert not out.exists()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"FAIL orbit: {_OUTSIDE}{cause}\n"
    payload = json.loads((out / "verify.json").read_text())
    assert payload["orbit"] is None
    assert payload["failures"] == [f"orbit: {_OUTSIDE}{cause}"]


_NAN_BASE = "FAIL orbit: no finite bound, the base residual is NaN\n"


@pytest.mark.parametrize("samples, errors", [
    ("times = 6.2, 3.9e-308\nn_r = 3\nn_theta = 2\n",
     {"verify": "FAIL governing Linf nan > 1.000e-08\n"
                "FAIL boundary Linf nan at t=3.9e-308 > 1.000e-09\n"
                + _NAN_BASE,
      "orbit": _NAN_BASE}),
    ("times = 0.01\nr_min_fraction = 5e-324\n",
     dict.fromkeys(("verify", "orbit"),
                   "evaluation failed: float division by zero\n")),
], ids=["tiny-time-overflows", "inner-rim-underflows"])
def test_field_not_evaluable_at_the_samples_exits_1(tmp_path, capsys,
                                                    samples, errors):
    """Valid sample values at which the field cannot be evaluated end the
    run with exit 1 and a message, without a report or a traceback.  A
    field that overflows to inf or NaN there fails its gates instead,
    with a report."""
    cfg = _write(tmp_path, _family_body("moving444", **dict(
        PARAMS["moving444"], c1=0.1, n=-2.0)) + f"\n[samples]\n{samples}"
        "\n[orbit]\nelement = rotation\n")
    for command, err in errors.items():
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == err
        assert out.exists() == err.startswith("FAIL")
        if out.exists():
            _load_strict(out / f"{command}.json")


def _load_strict(path):
    """The report at ``path``, read as strict JSON: no NaN or Infinity
    tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(path.read_text(), parse_constant=reject)


_SMALL_SAMPLES = "\n[samples]\ntimes = 1.0\nn_r = 2\nn_theta = 2\n"


@pytest.mark.parametrize("family_id, params", [
    ("full413", dict(PARAMS["full413"], n=-3.0, d0=7.5e-4)),
    ("steady432", dict(PARAMS["steady432"], d0=0.002)),
], ids=["power-overflows", "expm1-below-minus-37"])
def test_evaluable_field_with_extreme_values_fails_its_gates(
        tmp_path, capsys, family_id, params):
    """A field whose values overflow or whose arguments reach libm's
    rounding limits fails its gates with a strict-JSON report, instead of
    ending in ``evaluation failed``."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, _family_body(family_id, **params)
                 + _SMALL_SAMPLES)
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("FAIL ") for line in lines)
    assert lines[0].startswith("FAIL governing Linf ")
    payload = _load_strict(out / "verify.json")
    assert payload["failures"] == [line[5:] for line in lines]


def _mostly(valid, bad=_EXTREME):
    """Values that pass the config checks three times in four, so the fuzz
    reaches the checks as well as the loader."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else bad)


def _run_fuzzed(tmp_path, capsys, command, family_id, sections):
    """``command`` on an acceptance family with the given sections ends in
    exit 0, 1 or 2, never in an uncaught exception or a traceback, and a
    non-zero exit always says why on stderr."""
    cfg = _write(tmp_path, _family_body(family_id, **PARAMS[family_id])
                 + sections)
    code = main([command, "--config", cfg])
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.strip()


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["verify", "orbit"]),
       family_id=st.sampled_from(sorted(PARAMS)),
       times=st.lists(_mostly(st.floats(0.01, 100.0)), min_size=1,
                      max_size=2),
       n_r=_mostly(st.integers(1, 3), st.integers(-1, 0)),
       n_theta=_mostly(st.integers(1, 3), st.integers(-1, 0)),
       r_min_fraction=_mostly(st.floats(1e-3, 0.99)))
@example(command="verify", family_id="stationary413s", times=[math.nan],
         n_r=2, n_theta=2, r_min_fraction=0.01)
@example(command="verify", family_id="stationary413s", times=[math.inf],
         n_r=2, n_theta=2, r_min_fraction=0.01)
@example(command="orbit", family_id="moving444",
         times=[6.200249657024836, 3.904009724761424e-308], n_r=3,
         n_theta=2, r_min_fraction=0.4146568326350707)
@example(command="verify", family_id="moving444", times=[0.01], n_r=3,
         n_theta=2, r_min_fraction=5e-324)
def test_samples_fuzz_ends_in_an_exit_code(tmp_path, capsys, command,
                                           family_id, times, n_r, n_theta,
                                           r_min_fraction):
    _run_fuzzed(tmp_path, capsys, command, family_id,
                "\n[samples]\n"
                f"times = {', '.join(map(repr, times))}\n"
                f"n_r = {n_r}\nn_theta = {n_theta}\n"
                f"r_min_fraction = {r_min_fraction!r}\n"
                "\n[orbit]\nelement = rotation\n")


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["verify", "orbit"]),
       family_id=st.sampled_from(sorted(PARAMS)),
       element=_mostly(st.sampled_from(["rotation", "galilei",
                                        "pressure-shift",
                                        "time-translation", "scale"]),
                       st.just("teleport")),
       eps=_mostly(st.floats(-5.0, 5.0)),
       f=_mostly(st.sampled_from(["const", "sin"]), st.just("cos")),
       axis=_mostly(st.sampled_from(["x", "y"]), st.just("z")))
@example(command="verify", family_id="stationary413s", element="galilei",
         eps=0.5, f="const", axis="z")
@example(command="orbit", family_id="stationary413s", element="rotation",
         eps=math.inf, f="const", axis="x")
@example(command="orbit", family_id="stationary413s",
         element="time-translation", eps=1.0, f="const", axis="x")
@example(command="verify", family_id="stationary413s", element="scale",
         eps=400.0, f="const", axis="x")
@example(command="orbit", family_id="full413", element="galilei",
         eps=-4.5, f="const", axis="x")
def test_orbit_fuzz_ends_in_an_exit_code(tmp_path, capsys, command,
                                         family_id, element, eps, f, axis):
    _run_fuzzed(tmp_path, capsys, command, family_id,
                _SMALL_SAMPLES + f"\n[orbit]\nelement = {element}\n"
                f"eps = {eps!r}\nf = {f}\naxis = {axis}\n")


_TOLERANCE_NAMES = ("governing", "boundary", "reduced", "orbit_factor")


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family_id=st.sampled_from(sorted(PARAMS)),
       scales=st.lists(_mostly(st.floats(-4.0, 4.0)), min_size=8,
                       max_size=8),
       tolerances=st.lists(_mostly(st.floats(1e-16, 1e3)), min_size=4,
                           max_size=4))
@example(family_id="full413", scales=[1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0,
                                      1.0], tolerances=[1e-8] * 4)
@example(family_id="stationary413s", scales=[-1.0, 1.0, -0.75, 1.0, 1.0],
         tolerances=[1e-8] * 4)
@example(family_id="full413", scales=[1.0, 1.0, 1.0, -1.0, 1e-3, 1.0, 1.0,
                                      1.0], tolerances=[1e-8] * 4)
@example(family_id="steady432", scales=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-3],
         tolerances=[1e-8] * 4)
@example(family_id="stationary413s", scales=[1.0, 1.0, 1.0, 1.0, 1e-4],
         tolerances=[1e300, 5e-324, 1.0, 1e-300])
def test_verify_fuzz_over_family_and_tolerances(tmp_path, capsys, family_id,
                                                scales, tolerances):
    """``verify`` with the acceptance parameters scaled (a negative n sends
    positive arguments to Ei, a small d0 large ones) and any tolerances."""
    params = {k: v * s for (k, v), s in zip(PARAMS[family_id].items(),
                                            scales)}
    cfg = _write(tmp_path, _family_body(family_id, **params) + _SMALL_SAMPLES
                 + "\n[tolerances]\n" + "".join(
                     f"{k} = {v!r}\n" for k, v in zip(_TOLERANCE_NAMES,
                                                     tolerances)))
    assert main(["verify", "--config", cfg]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


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
