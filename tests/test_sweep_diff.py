"""tools/sweep_diff.py: this checkout against itself, with one sweep or verify
report nudged."""

import importlib.util
import json
import math
import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("sweep_diff", ROOT / "tools" / "sweep_diff.py")
sweep_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_diff)


def test_same_tree_pair_and_a_perturbed_report(monkeypatch, capsys):
    # one value of the change side's mb-onemass seed-2 report is moved by an
    # ulp before the comparison: that report differs first at that record,
    # and the other eight, swept by the same tree on both sides, are
    # byte-identical
    real = sweep_diff.differences

    def perturbed(directory, names):
        path = os.path.join(directory, "change", "mb-onemass-2.json")
        with open(path) as fh:
            report = json.load(fh)
        value = report["records"][3]["values"]["mb"]
        value["re"] = math.nextafter(value["re"], math.inf)
        with open(path, "w") as fh:
            fh.write(json.dumps(report) + "\n")
        return real(directory, names)

    monkeypatch.setattr(sweep_diff, "differences", perturbed)
    assert sweep_diff.main(["--base", str(ROOT)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mb-onemass-2: record 3"
    base, change = (json.loads(line.split(":", 1)[1]) for line in lines[1:3])
    assert base["index"] == change["index"] == 3
    assert change["values"]["mb"]["re"] == math.nextafter(base["values"]["mb"]["re"], math.inf)
    assert lines[3:] == ["8 of 9 sweep reports byte-identical",
                         "verify --suite all reports byte-identical"]


def test_verify_report_compared(monkeypatch, capsys):
    # no grids, so each side only runs verify --suite all; one check's
    # deviation in the change side's report is moved by an ulp, and that
    # check is named as the first difference
    real = sweep_diff.differences

    def perturbed(directory, names):
        path = os.path.join(directory, "change", "verify.json")
        with open(path) as fh:
            report = json.load(fh)
        check = report["records"][5]
        check["deviation"] = math.nextafter(check["deviation"], math.inf)
        with open(path, "w") as fh:
            fh.write(json.dumps(report) + "\n")
        return real(directory, names)

    monkeypatch.setattr(sweep_diff, "write_grids", lambda directory: [])
    monkeypatch.setattr(sweep_diff, "differences", perturbed)
    assert sweep_diff.main(["--base", str(ROOT)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verify: record 5"
    base, change = (json.loads(line.split(":", 1)[1]) for line in lines[1:3])
    assert base["check"] == change["check"]
    assert change["deviation"] == math.nextafter(base["deviation"], math.inf)
    assert lines[3:] == ["0 of 0 sweep reports byte-identical",
                         "verify --suite all reports differ"]
