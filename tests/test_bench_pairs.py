"""tools/bench_pairs.py: the per-metric verdict on synthetic paired runs, and the
flags it passes to the benchmark command."""

import importlib.util
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [{"name": "points_per_s", "better": "higher", "bound": 0.24},
            {"name": "setup_s", "better": "lower", "bound": 0.25}]


def _runs(values: list) -> list:
    return [{"correct": True, "failed": 0, "metrics": dict(v)} for v in values]


def _verdicts(parent: list, change: list) -> dict:
    return bench_pairs.summarise({"parent": _runs(parent), "change": _runs(change)},
                                 DECLARED)["verdict"]


STEADY = [100.0, 99.0, 101.0, 100.0, 98.0, 102.0, 100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize("factor, expected", [(0.70, "worse"), (0.80, "ok"), (1.0, "ok"),
                                              (2.0, "ok")])
def test_higher_is_better(factor, expected):
    parent = [{"points_per_s": v, "setup_s": 0.2} for v in STEADY]
    change = [{"points_per_s": v * factor, "setup_s": 0.2} for v in STEADY]
    assert _verdicts(parent, change) == {"points_per_s": expected, "setup_s": "ok"}


@pytest.mark.parametrize("factor, expected", [(1.3, "worse"), (1.2, "ok"), (0.5, "ok")])
def test_lower_is_better(factor, expected):
    parent = [{"points_per_s": 100.0, "setup_s": v / 500.0} for v in STEADY]
    change = [{"points_per_s": 100.0, "setup_s": v / 500.0 * factor} for v in STEADY]
    assert _verdicts(parent, change)["setup_s"] == expected


def test_wide_parent_spread_is_unresolved():
    # parent quartiles 60 and 140 around a median of 100: a spread of 0.8 > 0.24
    wide = [40.0, 60.0, 60.0, 60.0, 100.0, 100.0, 140.0, 140.0, 140.0, 160.0]
    parent = [{"points_per_s": v, "setup_s": 0.2} for v in wide]
    assert _verdicts(parent, parent)["points_per_s"] == "unresolved"
    # a change worse by more than the bound is worse whatever the spread
    change = [{"points_per_s": v * 0.5, "setup_s": 0.2} for v in wide]
    assert _verdicts(parent, change)["points_per_s"] == "worse"


def test_bound_is_a_share_of_the_parent_median():
    parent = bench_pairs.summary([10.0] * 10)
    metric = {"name": "min_digits", "better": "higher", "bound": 0.05}
    assert bench_pairs.verdict(parent, bench_pairs.summary([9.6] * 10), metric) == "ok"
    assert bench_pairs.verdict(parent, bench_pairs.summary([9.4] * 10), metric) == "worse"


def test_src_lines(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not code\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 3


def test_run_once_passes_the_trace_flag(tmp_path):
    # a stand-in benchmark command that reports the arguments it was given
    echo = ("import json, sys; print(json.dumps({'correct': True, 'attempted': 1, "
            "'failed': 0, 'metrics': {'argv': {'value': sys.argv[1:]}}}))")
    for trace in (0, 1):
        run = bench_pairs.run_once(str(tmp_path), [sys.executable, "-c", echo], "mb-onemass",
                                   1, 2.0, trace=trace)
        assert run["metrics"]["argv"] == ["--workload", "mb-onemass", "--seed", "1",
                                          "--seconds", "2.0", "--trace", str(trace)]
