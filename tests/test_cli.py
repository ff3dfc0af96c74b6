import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import pytest

from helpers import mp_box
from mbbox import cli
from mbbox.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    Report,
    RunConfig,
    cmd_eval,
    cmd_expand,
    main,
)
from mbbox.closed_form import (
    BoxValue,
    Kinematics,
    massless_box,
    massless_box_alt,
    onemass_box,
    onemass_box_alt,
)
from mbbox.errors import NonConvergence
from mbbox.mb_engine import (
    ContourSpec,
    mb_massless_eval,
    mb_onemass_eval,
    residue_massless,
    residue_onemass,
    select_contour_massless,
)
from mbbox.oracles import feynman_1d_massless, feynman_1d_onemass

SRC = Path(__file__).resolve().parents[1] / "src"


def run_main(argv):
    return main(argv)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports from src, run with ``args``."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


def run_fresh(code: str) -> list[str]:
    """Output lines of ``code`` run in a new interpreter that imports from src."""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestEval:
    def test_closed_json_record(self, capsys):
        code = run_main(["eval", "--integral", "massless", "--s", "-1", "--t", "-2",
                         "--eps", "0.3", "--method", "closed", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        rec = payload["records"][0]
        assert rec["method"] == "closed"
        assert set(rec["kinematics"]) == {"s", "t", "msq", "eps"}
        assert abs(rec["value"]["re"] - 24.077761462512434) < 1e-8
        assert rec["value"]["im"] == 0.0

    @pytest.mark.parametrize("eps", ["0.3", "1.5"])
    def test_python_m_mbbox_runs_main(self, eps, capsys):
        argv = ["eval", "--s=-1", "--t=-2", "--eps", eps]
        code = run_main(argv)
        out = capsys.readouterr()
        proc = run_python("-m", "mbbox", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)

    def test_mb_agrees_with_closed(self):
        cfg_c = RunConfig("massless", -1.0, -2.0, 0.3, method="closed")
        cfg_m = RunConfig("massless", -1.0, -2.0, 0.3, method="mb")
        vc = cmd_eval(cfg_c).records[0]["value"]
        vm = cmd_eval(cfg_m).records[0]
        err = vm["diagnostics"]["error_estimate"]
        assert abs(vm["value"]["re"] - vc["re"]) <= max(err, 1e-8 * abs(vc["re"]))

    def test_residue_breakdown_serialized(self):
        cfg = RunConfig("onemass", -1.0, -2.0, 0.3, msq=-0.5, method="residue")
        rec = cmd_eval(cfg).records[0]
        assert {"Im1", "Im2a", "Im2b", "spurious_sum", "spurious_terms",
                "delta_pole_coefficient"} <= set(rec["diagnostics"])
        assert "breakdown" not in rec

    @pytest.mark.parametrize("integral, method", sorted(cli._ROUTES))
    def test_every_route_returns_box_value(self, integral, method):
        msq = -0.5 if integral == "onemass" else None
        cfg = RunConfig(integral, -1.0, -2.0, 0.3, msq=msq, method=method)
        result = cli._ROUTES[(integral, method)](cfg, cfg.kinematics())
        assert isinstance(result, BoxValue)
        assert result.method == method
        json.dumps(cli._jsonable(result.diagnostics), allow_nan=False)

    @pytest.mark.parametrize("method", ["mb", "feynman"])
    @pytest.mark.parametrize("cut", ["above", "below"])
    def test_one_sided_cut_refused_where_unread(self, method, cut, capsys):
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", method, "--cut", cut])
        assert code == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--cut {cut} is not read by method {method}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["closed", "closed_alt", "residue", "feynman", "mb"])
    @pytest.mark.parametrize("option", [["--nodes", "5"], ["--height=-1"], ["--height", "3"]],
                             ids=["nodes", "negative-height", "height"])
    def test_contour_option_refused_where_unread(self, method, option, capsys):
        # no method reads a node count or a height, mb included: each mb
        # point runs its route's one self-refining rule
        with pytest.raises(SystemExit) as exc:
            run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                      "--method", method, *option])
        assert exc.value.code == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_eval_option_set(self, capsys):
        # the whole option set of eval: a contour knob that came back, or
        # any other new option, changes this test
        with pytest.raises(SystemExit) as exc:
            run_main(["eval", "--help"])
        assert exc.value.code == EXIT_OK
        options = re.findall(r"(?<![\w-])(--?[a-z]+)", capsys.readouterr().out)
        assert sorted(set(options)) == ["--cut", "--eps", "--help", "--integral", "--json",
                                        "--method", "--msq", "--out", "--s", "--t", "-h"]

    @pytest.mark.parametrize("integral, method", sorted(cli._ROUTES))
    def test_principal_value_cut_works_everywhere(self, integral, method, capsys):
        msq = ["--msq", "-0.5"] if integral == "onemass" else []
        code = run_main(["eval", "--integral", integral, "--s", "-1", "--t", "-2", *msq,
                         "--eps", "0.3", "--method", method, "--cut", "pv"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_euclidean_violation_exit_code(self, capsys):
        code = run_main(["eval", "--s", "1", "--t", "-2", "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR
        assert "EuclideanRegionViolation" in capsys.readouterr().err

    def test_degenerate_exit_code(self):
        code = run_main(["eval", "--integral", "onemass", "--s", "-1", "--t", "-2",
                         "--msq", "-3", "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR

    def test_not_converged_exit_code(self, capsys):
        # the one-mass rule at eps = 1e-6 needs more contour nodes than the cap
        code = run_main(["eval", "--integral", "onemass", "--s", "-1", "--t", "-2",
                         "--msq", "-0.5", "--eps", "1e-6", "--method", "mb"])
        assert code == EXIT_NOT_CONVERGED
        assert "NotConverged" in capsys.readouterr().err

    def test_overflowing_phase_spread_exits_2(self, capsys):
        # msq/t = 1e400 overflows the one-mass pair's phase spread, so its
        # step is 0: no contour is formed
        code = run_main(["eval", "--integral", "onemass", "--s=-1", "--t=-1e-200",
                         "--msq=-1e200", "--eps", "0.3", "--method", "mb"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: InfeasibleContour: need a positive step, got step=0.0\n")

    @pytest.mark.parametrize("method", ["closed", "closed_alt", "feynman", "residue"])
    def test_non_finite_msq_rejected(self, method, capsys):
        code = run_main(["eval", "--integral", "onemass", "--s", "-1", "--t", "-2",
                         "--msq=-inf", "--eps", "0.3", "--method", method])
        assert code == EXIT_INPUT_ERROR
        assert "msq=-inf is not finite" in capsys.readouterr().err

    def test_non_finite_t_rejected(self, capsys):
        code = run_main(["eval", "--s", "-1", "--t=-inf", "--eps", "0.3",
                         "--method", "feynman"])
        assert code == EXIT_INPUT_ERROR
        assert "t=-inf is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "expand"])
    def test_msq_needs_onemass(self, command, capsys):
        code = run_main([command, "--s", "-1", "--t", "-2", "--msq", "-0.5",
                         "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR
        assert "integral='massless' with msq=-0.5" in capsys.readouterr().err

    def test_negative_exponent_as_separate_argument(self, capsys):
        spaced = ["eval", "--s", "-1e-3", "--t", "-2.5e1", "--eps", "3e-1", "--method", "mb"]
        joined = ["eval", "--s=-1e-3", "--t=-2.5e1", "--eps=3e-1", "--method", "mb"]
        assert run_main(spaced) == EXIT_OK
        out = capsys.readouterr().out
        assert run_main(joined) == EXIT_OK
        assert out == capsys.readouterr().out
        assert float(out.split()[0]) > 0.0

    def test_unknown_option_after_number_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_main(["eval", "--s", "--bogus", "--t", "-2", "--eps", "0.3"])
        assert exc.value.code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "argument --s: expected one argument" in err
        assert "Traceback" not in err

    def test_feynman_small_eps(self, capsys):
        # z**(eps-1) underflows near z = 0: no traceback, a value, exit 0
        code = run_main(["eval", "--s=-1", "--t=-2", "--eps", "0.008",
                         "--method", "feynman"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK and err == ""
        ref = mp_box(-1.0, -2.0, 0.008)
        assert abs(float(out.split()[0]) - ref) < 1e-12 * abs(ref)

    def test_no_locale_formatting(self, capsys):
        run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3", "--json"])
        out = capsys.readouterr().out
        assert "," not in out.replace(", ", " ")  # commas only as JSON separators
        value = json.loads(out)["records"][0]["value"]["re"]
        assert value == float(repr(value))


class TestArithmeticFailure:
    """At s = t = -1e-200 the box is about 1e340, out of the double range:
    every route and the expansion exit 3 with one error line."""

    POINT = ["--s=-1e-200", "--t=-1e-200", "--eps", "0.3"]
    COMMANDS = [["eval", "--method", m] for m in cli._METHODS] + [["expand"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_in_process(self, command, capsys):
        assert run_main([*command, *self.POINT, "--json"]) == EXIT_NOT_CONVERGED
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: NonConvergence: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_module_entry_point(self, command):
        proc = run_python("-m", "mbbox.cli", *command, *self.POINT)
        assert proc.returncode == EXIT_NOT_CONVERGED
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: NonConvergence: ")
        assert "Traceback" not in proc.stderr

    def test_sweep_keeps_other_points(self, tmp_path):
        grid = [{"s": -1e-200, "t": -1e-200, "eps": 0.3, "methods": list(cli._METHODS)},
                {"s": -1.0, "t": -2.0, "eps": 0.3, "methods": ["closed", "residue"]}]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out_file = tmp_path / "report.json"
        assert run_main(["sweep", str(grid_file), "--out", str(out_file)]) \
            == EXIT_NOT_CONVERGED
        report = Report.from_json(out_file.read_text())
        bad, good = report.records
        assert bad["status"] == "failed" and bad["reason"].startswith("NonConvergence")
        assert good["status"] == "ok" and good["pass"]
        assert report.summary["errors"] == 1


class TestComplementRoundsToOne:
    """At (s, t) = (-1e300, -2) a 2F1 argument 1 + t/s rounds to 1, where
    F(1, b; 1+b; z) diverges: a numerical failure, exit 3, though its class
    is PoleError.  The residue route fails before the pole: at the unit
    point t/s = 2e-300, and (-t)^(eps-2) overflows."""

    POINT = ["--s=-1e300", "--t=-2", "--eps", "0.3"]

    POLE = "PoleError: F(1,b;1+b;z) diverges at z=1"
    MESSAGES = {"closed": POLE, "closed_alt": POLE,
                "residue": "NonConvergence: method residue failed: OverflowError: "
                           "(34, 'Numerical result out of range')"}

    @pytest.mark.parametrize("method", sorted(MESSAGES))
    def test_exit_3(self, method, capsys):
        assert run_main(["eval", *self.POINT, "--method", method]) == EXIT_NOT_CONVERGED
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {self.MESSAGES[method]}\n"


# (integral, method) -> the public function that gives the route's value
PUBLIC_ROUTES = {
    ("massless", "closed"): massless_box, ("massless", "closed_alt"): massless_box_alt,
    ("massless", "mb"): mb_massless_eval, ("massless", "residue"): residue_massless,
    ("massless", "feynman"): feynman_1d_massless,
    ("onemass", "closed"): onemass_box, ("onemass", "closed_alt"): onemass_box_alt,
    ("onemass", "mb"): mb_onemass_eval, ("onemass", "residue"): residue_onemass,
    ("onemass", "feynman"): feynman_1d_onemass,
}


class TestDefaultContour:
    """eval and sweep run the route that its public function runs: the same value and diagnostics, bit for bit.  For mb that is the
    rule mb_massless_eval(k) and mb_onemass_eval(k) select.  The sweep runs
    every method of the point on one Kinematics, which they share."""

    @pytest.mark.parametrize("k", [Kinematics(s=-1.0, t=-1.0, eps=0.13),
                                   Kinematics(s=-1.0, t=-1.0, eps=0.4, msq=-0.5),
                                   Kinematics(s=-1.0, t=-2.0, eps=0.3),
                                   Kinematics(s=-2.0, t=-0.5, eps=0.25, msq=-1.0)])
    def test_eval_and_sweep_match_route(self, k, tmp_path, capsys):
        integral = "massless" if k.msq is None else "onemass"
        mass = [] if k.msq is None else [f"--msq={k.msq}"]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"integral": integral, "s": k.s, "t": k.t,
                                          "msq": k.msq, "eps": k.eps,
                                          "methods": list(cli._METHODS)}]))
        out_file = tmp_path / "report.json"
        assert run_main(["sweep", str(grid_file), "--out", str(out_file)]) == EXIT_OK
        swept = Report.from_json(out_file.read_text()).records[0]
        for method in cli._METHODS:
            fresh = Kinematics(s=k.s, t=k.t, eps=k.eps, msq=k.msq)
            result = PUBLIC_ROUTES[(integral, method)](fresh)
            ref = json.loads(json.dumps({"value": cli._c(result.value),
                                         "diagnostics": cli._jsonable(result.diagnostics)}))
            assert run_main(["eval", "--integral", integral, f"--s={k.s}", f"--t={k.t}",
                             f"--eps={k.eps}", *mass, "--method", method, "--json"]) == EXIT_OK
            record = json.loads(capsys.readouterr().out)["records"][0]
            assert {key: record[key] for key in ref} == ref, method
            assert {"value": swept["values"][method],
                    "diagnostics": swept["diagnostics"][method]} == ref, method

    def test_node_override_subtracts_the_crossed_residue(self, monkeypatch, capsys):
        # the default line at eps = 0.3 has crossed the pole at eps - 1, and
        # so has a line of 4001 nodes given by hand at the default abscissa:
        # both subtract the residue and agree
        k = Kinematics(s=-1.0, t=-2.0, eps=0.3)
        default = select_contour_massless(k)
        ref = mb_massless_eval(k).value
        monkeypatch.setattr(cli.mb_engine, "massless_line",
                            lambda k, crossed: ContourSpec(default.abscissa, 6.0, 4001))
        assert run_main(["eval", "--s=-1", "--t=-2", "--eps=0.3", "--method", "mb",
                         "--json"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)["records"][0]
        assert record["diagnostics"]["nodes"] == 4001
        assert record["diagnostics"]["passes"] == 1
        assert record["diagnostics"]["abscissa"] == default.abscissa
        assert abs(record["value"]["re"] - ref.real) <= 1e-13 * abs(ref)


class TestOutOfRange:
    """At (s, t, msq) = (-1e200, -2e200, -5e199) the box is about 1e-340,
    below the double range: the routes, which once formed s t and met a NaN
    2F1 argument there, evaluate the unit point and exit 3 naming the scale.
    ``test_specfun.py::TestNaNArgument`` covers the NaN refusal itself."""

    POINT = ["--integral", "onemass", "--s=-1e200", "--t=-2e200", "--msq=-5e199",
             "--eps", "0.3"]

    @pytest.mark.parametrize("method", ["closed", "closed_alt", "residue"])
    def test_exit_3_naming_the_scale(self, method, capsys):
        assert run_main(["eval", *self.POINT, "--method", method]) == EXIT_NOT_CONVERGED
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: NonConvergence: method {method} at the scale -s=1e+200 "
                       "gave 0j, out of the double range\n")


class TestScale:
    """The box is homogeneous, I(l s, l t, l msq) = l^(eps-2) I(s, t, msq).
    Every route evaluates it at s = -1 and scales it once: at any scale a
    route is right, or it exits 3 naming the scale."""

    UNIT = {"massless": (-1.0, -2.0, None), "onemass": (-1.0, -2.0, -0.5)}
    # the box at l (-1, -2) is about l^-1.7: in range up to 1e+-170, out at 1e+-300
    IN_RANGE = (1e154, 1e160, 1e170, 1e-154, 1e-160, 1e-170)
    OUT_OF_RANGE = (1e300, 1e-300)

    def _cfg(self, integral, lam, method="closed"):
        s, t, msq = self.UNIT[integral]
        return RunConfig(integral, lam * s, lam * t, 0.3,
                         msq=None if msq is None else lam * msq, method=method)

    @pytest.mark.parametrize("lam", IN_RANGE + OUT_OF_RANGE)
    @pytest.mark.parametrize("integral, method", sorted(cli._ROUTES))
    def test_every_route_scales_or_exits_3(self, integral, method, lam):
        unit = cmd_eval(self._cfg(integral, 1.0, method)).records[0]["value"]["re"]
        if lam in self.OUT_OF_RANGE:
            with pytest.raises(NonConvergence, match="at the scale -s="):
                cmd_eval(self._cfg(integral, lam, method))
            return
        value = cmd_eval(self._cfg(integral, lam, method)).records[0]["value"]["re"]
        want = mpmath.mpf(lam) ** (mpmath.mpf(0.3) - 2) * unit
        assert abs(value - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("method", cli._METHODS)
    def test_value_below_range_exits_3(self, method, capsys):
        # about 1e-340; the routes once printed 0.0 0.0 with exit 0 here
        assert run_main(["eval", "--s=-1e200", "--t=-3e200", "--eps", "0.3",
                         "--method", method]) == EXIT_NOT_CONVERGED
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: NonConvergence: method {method} at the scale -s=1e+200 ")

    @pytest.mark.parametrize("method", cli._METHODS)
    def test_ratio_out_of_range_is_bad_input(self, method, capsys):
        assert run_main(["eval", "--s=-1e-300", "--t=-1e300", "--eps", "0.3",
                         "--method", method]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == \
            "error: DegenerateKinematics: t/s=inf is not a normal double\n"

    def test_sweep_skips_a_ratio_out_of_range(self, tmp_path):
        grid = [{"s": -1e-300, "t": -1e300, "eps": 0.3, "methods": list(cli._METHODS)},
                {"s": -1.0, "t": -2.0, "eps": 0.3, "methods": ["closed", "mb"]}]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        report = cli.cmd_sweep(str(grid_file), None)
        bad, good = report.records
        assert bad["status"] == "skipped-degenerate" and "t/s" in bad["reason"]
        assert good["status"] == "ok" and good["pass"]
        assert report.summary["warnings"] == 1 and report.summary["errors"] == 0

    @pytest.mark.parametrize("lam", (1e150, 1e-150, 1e154, 1e-154, 1e300))
    @pytest.mark.parametrize("integral", sorted(UNIT))
    def test_expand_keeps_every_row_or_exits_3(self, integral, lam):
        # (-s)^xi / s^2 = lam^-2 (1 + xi L + xi^2 L^2 / 2) with L = ln lam
        # mixes the unit point's rows
        unit = [complex(r["re"], r["im"])
                for r in cmd_expand(self._cfg(integral, 1.0)).records[0]["laurent"]]
        try:
            rows = cmd_expand(self._cfg(integral, lam)).records[0]["laurent"]
        except NonConvergence as exc:
            assert lam not in (1e150, 1e-150)
            assert "at the scale -s=" in str(exc)
            return
        assert [r["power"] for r in rows] == [-2, -1, 0]
        log = mpmath.log(lam)
        for j, row in enumerate(rows):
            want = sum(unit[j - i] * log ** i / mpmath.factorial(i)
                       for i in range(j + 1)) / mpmath.mpf(lam) ** 2
            assert abs(row["re"] - want) <= 1e-13 * abs(want) and row["im"] == 0.0


class TestExpand:
    def test_massless_symmetric_point(self, capsys):
        code = run_main(["expand", "--s", "-1", "--t", "-1", "--eps", "0.3", "--json"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert rec["provenance"] == "analytic-series"
        rows = {row["power"]: row["re"] for row in rec["laurent"]}
        assert abs(rows[-2] - 4.0) < 1e-12

    def test_onemass_pole_structure_vs_mass(self):
        # the expansion does not commute with the massless limit: the
        # double-pole coefficient keeps its three-power structure at any
        # msq, and the mass dependence moves into a log at the next order
        s, t = -1.0, -2.0
        rows = {}
        for m2 in (-1e-2, -1e-6):
            cfg = RunConfig("onemass", s, t, 0.3, msq=m2)
            rows[m2] = {r["power"]: r["re"]
                        for r in cmd_expand(cfg).records[0]["laurent"]}
        for m2 in rows:
            assert abs(rows[m2][-2] - 2.0 / (s * t)) < 1e-12
        dlog = math.log(1e-2) - math.log(1e-6)
        expected = -(2.0 / (s * t)) * dlog
        assert abs((rows[-1e-2][-1] - rows[-1e-6][-1]) - expected) < 1e-10

    def test_non_finite_msq_rejected(self, capsys):
        code = run_main(["expand", "--integral", "onemass", "--s", "-1", "--t", "-2",
                         "--msq=-inf", "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR
        assert "msq=-inf is not finite" in capsys.readouterr().err

    def test_negative_exponent_as_separate_argument(self, capsys):
        spaced = ["expand", "--integral", "onemass", "--s", "-1e-3", "--t", "-2",
                  "--msq", "-1e-1", "--eps", "3e-1"]
        joined = ["expand", "--integral", "onemass", "--s=-1e-3", "--t", "-2",
                  "--msq=-1e-1", "--eps=3e-1"]
        assert run_main(spaced) == EXIT_OK
        out = capsys.readouterr().out
        assert run_main(joined) == EXIT_OK
        assert out == capsys.readouterr().out
        assert len(out.splitlines()) == 3

    def test_order_range_enforced(self):
        cfg = RunConfig("massless", -1.0, -2.0, 0.3)
        with pytest.raises(Exception):
            cmd_expand(cfg, order=1)


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        code = run_main(["verify", "--suite", "identities", "--tol", "1e-11"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["failures"] == 0
        assert summary["checks"] >= 35

    def test_zero_tol_is_kept(self, monkeypatch, capsys):
        # every identity deviates by more than zero, so both forms fail
        assert run_main(["verify", "--suite", "identities", "--tol", "0"]) \
            == EXIT_VERIFY_FAILED
        assert json.loads(capsys.readouterr().out)["summary"]["failures"] > 0
        monkeypatch.setenv("MBBOX_TOL", "0")
        assert run_main(["verify", "--suite", "identities"]) == EXIT_VERIFY_FAILED

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_rejected(self, tol, capsys):
        assert run_main(["verify", "--suite", "identities", "--tol", tol]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--tol={float(tol)!r} is not a finite number >= 0" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_main(["verify", "--suite", "nonsense"])


class TestSweep:
    def test_grid_with_degenerate_point(self, tmp_path, capsys):
        grid = {"points": [
            {"integral": "massless", "s": -1.0, "t": -2.0, "eps": 0.3,
             "methods": ["closed", "closed_alt", "residue"]},
            {"integral": "onemass", "s": -1.0, "t": -2.0, "msq": -3.0, "eps": 0.3,
             "methods": ["closed"]},
        ]}
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out_file = tmp_path / "report.json"
        code = run_main(["sweep", str(grid_file), "--out", str(out_file)])
        assert code == EXIT_OK
        report = Report.from_json(out_file.read_text())
        assert report.summary["points"] == 2
        assert report.summary["warnings"] == 1
        assert report.summary["failures"] == 0
        statuses = [r["status"] for r in report.records]
        assert statuses == ["ok", "skipped-degenerate"]

    def test_failing_point_is_recorded(self, tmp_path):
        # the one-mass rule at eps = 1e-6 needs more contour nodes than the
        # cap allows
        grid = {"points": [
            {"integral": "onemass", "s": -1.0, "t": -2.0, "msq": -0.5, "eps": 1e-6,
             "methods": ["mb"]},
            {"integral": "massless", "s": -1.0, "t": -2.0, "eps": 0.3,
             "methods": ["closed", "mb"]},
        ]}
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out_file = tmp_path / "report.json"
        code = run_main(["sweep", str(grid_file), "--out", str(out_file)])
        assert code == EXIT_NOT_CONVERGED
        report = Report.from_json(out_file.read_text())
        assert report.summary["errors"] == 1
        assert report.summary["failures"] == 0
        bad, good = report.records
        assert bad["status"] == "failed"
        assert bad["reason"].startswith("NotConverged")
        assert good["status"] == "ok" and good["pass"]
        assert abs(good["values"]["mb"]["re"] - 24.077761462512434) < 1e-10

    def test_non_numeric_field(self, tmp_path, capsys):
        grid = [{"integral": "onemass", "s": -1.0, "t": -2.0, "msq": "-0.5",
                 "eps": 0.3, "methods": ["closed"]}]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        assert run_main(["sweep", str(grid_file)]) == EXIT_INPUT_ERROR
        assert "msq='-0.5'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ({"integral": "onemass", "msq": -math.inf}, "grid point 1: msq=-inf is not a finite"),
        ({"integral": "massless", "s": -10 ** 400}, "grid point 1: s=-1000"),
        ({"integral": "bogus", "msq": -0.5}, "grid point 1: integral='bogus' with"),
        ({"integral": "massless", "msq": -0.5}, "grid point 1: integral='massless' with"),
        ({"integral": "onemass"}, "grid point 1: integral='onemass' with msq=None")])
    def test_bad_point_rejected(self, bad, message, tmp_path, capsys):
        grid = [{"s": -1.0, "t": -2.0, "eps": 0.3},
                {"s": -1.0, "t": -2.0, "eps": 0.3, **bad}]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out_file = tmp_path / "report.json"
        assert run_main(["sweep", str(grid_file), "--out", str(out_file)]) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("methods", ["mb", 5, ["bogus"], ["closed", None]])
    def test_bad_methods_rejected(self, methods, tmp_path, capsys):
        grid = [{"s": -1.0, "t": -2.0, "eps": 0.3},
                {"s": -1.0, "t": -2.0, "eps": 0.3, "methods": methods}]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        out_file = tmp_path / "report.json"
        assert run_main(["sweep", str(grid_file), "--out", str(out_file)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"grid point 1: methods={methods!r} is not a list of method names" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    def test_zero_tol_is_kept(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"s": -1.0, "t": -2.0, "eps": 0.3}]))
        out_file = tmp_path / "report.json"
        run_main(["sweep", str(grid_file), "--out", str(out_file), "--tol", "0"])
        assert Report.from_json(out_file.read_text()).summary["tol"] == 0.0

    @pytest.mark.parametrize("args, env, name", [(["--tol", "nan"], None, "--tol=nan"),
                                                 ([], "inf", "MBBOX_TOL=inf")],
                             ids=["flag", "environment"])
    def test_bad_tol_rejected(self, args, env, name, tmp_path, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("MBBOX_TOL", env)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"s": -1.0, "t": -2.0, "eps": 0.3}]))
        out_file = tmp_path / "report.json"
        code = run_main(["sweep", str(grid_file), "--out", str(out_file), *args])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"{name} is not a finite number >= 0" in err
        assert "Traceback" not in err
        assert not out_file.exists()

    def test_empty_grid(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"points": []}))
        code = run_main(["sweep", str(grid_file)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["points"] == 0

    def test_malformed_grid(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text("{not json")
        assert run_main(["sweep", str(grid_file)]) == EXIT_INPUT_ERROR

    def test_object_without_points(self, tmp_path, capsys):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"foo": 1}))
        assert run_main(["sweep", str(grid_file)]) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: DegenerateKinematics: ") and "'points'" in err
        assert err.count("\n") == 1

    def test_deterministic_ordering(self, tmp_path):
        pts = [{"integral": "massless", "s": -s, "t": -2.0, "eps": 0.3,
                "methods": ["closed"]} for s in (1.0, 1.5, 2.0, 2.5, 3.0)]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(pts))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run_main(["sweep", str(grid_file), "--out", str(out1)]) == EXIT_OK
        assert run_main(["sweep", str(grid_file), "--out", str(out2)]) == EXIT_OK
        assert out1.read_text() == out2.read_text()
        indices = [r["index"] for r in Report.from_json(out1.read_text()).records]
        assert indices == sorted(indices)


    def test_mb_grid_keeps_order(self, tmp_path):
        pts = [{"integral": "massless", "s": -s, "t": -2.0, "eps": 0.3,
                "methods": ["closed", "mb"] if s > 2.0 else ["closed"]}
               for s in (1.0, 1.5, 2.0, 2.5, 3.0)]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(pts))
        out = tmp_path / "r.json"
        assert run_main(["sweep", str(grid_file), "--out", str(out)]) == EXIT_OK
        records = Report.from_json(out.read_text()).records
        assert [r["index"] for r in records] == list(range(len(pts)))
        for rec, pt in zip(records, pts):
            assert sorted(rec["values"]) == sorted(pt["methods"])
            closed = cmd_eval(RunConfig("massless", pt["s"], pt["t"], pt["eps"]))
            assert rec["values"]["closed"] == closed.records[0]["value"]

    @pytest.mark.parametrize("methods", [["closed", "residue"], ["closed", "feynman"],
                                         ["closed", "mb"]])
    def test_points_run_in_grid_order_on_the_calling_thread(self, methods, tmp_path,
                                                             monkeypatch):
        calls = []
        evaluate = cli._evaluate

        def recording(cfg, k):
            calls.append((threading.get_ident(), cfg.s, cfg.method))
            return evaluate(cfg, k)

        monkeypatch.setattr(cli, "_evaluate", recording)
        pts = [{"s": -1.0 - i, "t": -2.0, "eps": 0.3, "methods": ["closed"]} for i in range(4)]
        pts[-1] = {**pts[-1], "methods": methods}
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(pts))
        assert run_main(["sweep", str(grid_file), "--out", str(tmp_path / "r.json")]) \
            == EXIT_OK
        expected = [(p["s"], m) for p in pts for m in p["methods"]]
        assert [(s, m) for _, s, m in calls] == expected
        assert {ident for ident, _, _ in calls} == {threading.get_ident()}

    def test_one_kinematics_and_one_unit_point_per_point(self, tmp_path, monkeypatch):
        # the point and its unit point: every method of the point shares both
        built = []
        post_init = Kinematics.__post_init__

        def counting(k):
            built.append(k)
            post_init(k)

        monkeypatch.setattr(Kinematics, "__post_init__", counting)
        methods = ["closed", "closed_alt", "residue", "feynman"]
        pts = [{"s": s, "t": -2.0, "eps": 0.3, "methods": methods} for s in (-1.0, -3.0)]
        pts += [{"integral": "onemass", "s": s, "t": -2.0, "msq": -0.5, "eps": 0.3,
                 "methods": methods} for s in (-1.0, -3.0)]
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(pts))
        report = cli.cmd_sweep(str(grid_file), None)
        assert [r["status"] for r in report.records] == ["ok"] * len(pts)
        assert len(built) <= 2 * len(pts)


class TestColdStart:
    """No route and no verify suite imports scipy."""

    SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

    @pytest.mark.parametrize("method", [None, "closed", "mb"])
    def test_no_scipy_without_quadrature(self, method):
        code = "import sys\nimport mbbox.cli\n"
        if method:
            code += ("assert mbbox.cli.main(['eval', '--s=-1', '--t=-2', '--eps', '0.3', "
                     f"'--method', {method!r}]) == 0\n")
        assert run_fresh(code + self.SCIPY)[-1] == "[]"

    def test_feynman_integrates_without_scipy(self):
        value, loaded = run_fresh(
            "import sys\nimport mbbox.cli\n"
            "assert mbbox.cli.main(['eval', '--s=-1', '--t=-2', '--eps', '0.3', "
            "'--method', 'feynman']) == 0\n" + self.SCIPY)
        re_part, im_part = map(float, value.split())
        assert abs(re_part - 24.077761462512452) <= 1e-15 * re_part and im_part == 0.0
        assert loaded == "[]"

    def test_verify_identities_loads_no_scipy(self):
        code = ("import sys\nimport mbbox.cli\n"
                "assert mbbox.cli.main(['verify', '--suite', 'identities']) == 0\n")
        assert run_fresh(code + self.SCIPY)[-1] == "[]"


class TestReportRoundTrip:
    def test_lossless(self):
        cfg = RunConfig("massless", -1.0, -2.0, 0.3, method="closed")
        report = cmd_eval(cfg)
        again = Report.from_json(report.to_json())
        assert again.to_json() == report.to_json()
        value = again.records[0]["value"]["re"]
        assert value == cmd_eval(cfg).records[0]["value"]["re"]


class TestEnvironmentOverrides:
    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("MBBOX_TOL", "frogs")
        assert run_main(["verify", "--suite", "identities"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: DegenerateKinematics: bad MBBOX_TOL='frogs'\n"

    def test_retired_contour_variables_ignored_by_mb(self, monkeypatch, capsys):
        # MBBOX_QUAD_NODES and MBBOX_QUAD_HEIGHT once set the mb contour; no
        # command reads them now
        argv = ["eval", "--s", "-1", "--t", "-2", "--eps", "0.3", "--method", "mb", "--json"]
        assert run_main(argv) == EXIT_OK
        out = capsys.readouterr().out
        monkeypatch.setenv("MBBOX_QUAD_NODES", "frogs")
        monkeypatch.setenv("MBBOX_QUAD_HEIGHT", "-1")
        assert run_main(argv) == EXIT_OK
        assert capsys.readouterr() == (out, "")

    # MBBOX_TOL is read by verify and sweep; no command reads the retired
    # contour variables
    UNREAD = {"verify": ["verify", "--suite", "identities"],
              "expand": ["expand", "--s", "-1", "--t", "-2", "--eps", "0.3"],
              "eval-closed": ["eval", "--s", "-1", "--t", "-2", "--eps", "0.3"]}

    @pytest.mark.parametrize("command, name", [
        (command, name) for command in UNREAD
        for name in ("MBBOX_TOL", "MBBOX_QUAD_NODES", "MBBOX_QUAD_HEIGHT")
        if (command, name) != ("verify", "MBBOX_TOL")])
    def test_bad_value_ignored_where_unread(self, command, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "frogs")
        argv = self.UNREAD[command]
        assert run_main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["closed", "closed_alt", "residue", "feynman"])
    def test_env_contour_not_refused_for_other_methods(self, method, monkeypatch, capsys):
        monkeypatch.setenv("MBBOX_QUAD_NODES", "5")
        monkeypatch.setenv("MBBOX_QUAD_HEIGHT", "-1")
        argv = ["eval", "--s", "-1", "--t", "-2", "--eps", "0.3", "--method", method]
        assert run_main(argv) == EXIT_OK
        out = capsys.readouterr().out
        monkeypatch.delenv("MBBOX_QUAD_NODES")
        monkeypatch.delenv("MBBOX_QUAD_HEIGHT")
        assert run_main(argv) == EXIT_OK
        assert capsys.readouterr().out == out
