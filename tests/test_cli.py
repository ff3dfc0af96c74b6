import json
import math

import pytest

from helpers import mp_box
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
from mbbox.closed_form import Kinematics
from mbbox.mb_engine import select_contour_massless


def run_main(argv):
    return main(argv)


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
        assert {"Im1", "Im2a", "Im2b", "spurious_sum", "total"} <= set(rec["breakdown"])

    def test_euclidean_violation_exit_code(self, capsys):
        code = run_main(["eval", "--s", "1", "--t", "-2", "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR
        assert "EuclideanRegionViolation" in capsys.readouterr().err

    def test_degenerate_exit_code(self):
        code = run_main(["eval", "--integral", "onemass", "--s", "-1", "--t", "-2",
                         "--msq", "-3", "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR

    def test_not_converged_exit_code(self):
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", "mb", "--nodes", "40", "--height", "5"])
        assert code == EXIT_NOT_CONVERGED
        code = run_main(["eval", "--integral", "onemass", "--s", "-1", "--t", "-2",
                         "--msq", "-0.5", "--eps", "0.3",
                         "--method", "mb", "--nodes", "64"])
        assert code == EXIT_NOT_CONVERGED

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

    @pytest.mark.parametrize("args, env", [
        (["--height", "nan"], None), (["--height", "inf"], None),
        ([], "nan"), (["--nodes", "100", "--height", "nan"], None),
        (["--integral", "onemass", "--msq", "-0.5", "--height", "inf"], None)])
    def test_non_finite_height_rejected(self, args, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("MBBOX_QUAD_HEIGHT", env)
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", "mb", *args])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "InfeasibleContour: need a finite and positive height" in err
        assert f"height={float(env or args[-1])}" in err

    @pytest.mark.parametrize("command", ["eval", "expand"])
    def test_msq_needs_onemass(self, command, capsys):
        code = run_main([command, "--s", "-1", "--t", "-2", "--msq", "-0.5",
                         "--eps", "0.3"])
        assert code == EXIT_INPUT_ERROR
        assert "integral='massless' with msq=-0.5" in capsys.readouterr().err

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
        assert "," not in out.replace(",\n", "\n")  # separators only at line ends
        value = json.loads(out)["records"][0]["value"]["re"]
        assert value == float(repr(value))


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
        # eps = 1e-6 needs more contour nodes than the cap allows
        grid = {"points": [
            {"integral": "massless", "s": -1.0, "t": -2.0, "eps": 1e-6,
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

    def test_zero_tol_is_kept(self, tmp_path):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps([{"s": -1.0, "t": -2.0, "eps": 0.3}]))
        out_file = tmp_path / "report.json"
        run_main(["sweep", str(grid_file), "--out", str(out_file), "--tol", "0"])
        assert Report.from_json(out_file.read_text()).summary["tol"] == 0.0

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


class TestReportRoundTrip:
    def test_lossless(self):
        cfg = RunConfig("massless", -1.0, -2.0, 0.3, method="closed")
        report = cmd_eval(cfg)
        again = Report.from_json(report.to_json())
        assert again.to_json() == report.to_json()
        value = again.records[0]["value"]["re"]
        assert value == cmd_eval(cfg).records[0]["value"]["re"]


class TestEnvironmentOverrides:
    def test_env_nodes_applied(self, monkeypatch, capsys):
        monkeypatch.setenv("MBBOX_QUAD_NODES", "4096")
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", "mb", "--json"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert rec["diagnostics"]["nodes"] == 4096

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MBBOX_QUAD_NODES", "4096")
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", "mb", "--nodes", "6000", "--json"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert rec["diagnostics"]["nodes"] == 6000

    def test_height_alone_keeps_default_step(self, capsys):
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", "mb", "--height", "3", "--json"])
        assert code == EXIT_OK
        diag = json.loads(capsys.readouterr().out)["records"][0]["diagnostics"]
        default = select_contour_massless(0.3, Kinematics(s=-1.0, t=-2.0, eps=0.3))
        assert diag["height"] == 3.0
        assert default.step * 0.99 < diag["step"] <= default.step

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("MBBOX_QUAD_NODES", "frogs")
        code = run_main(["eval", "--s", "-1", "--t", "-2", "--eps", "0.3",
                         "--method", "mb"])
        assert code == EXIT_INPUT_ERROR
