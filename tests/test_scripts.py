"""The study scripts run end to end and write CSVs that parse."""

import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
REFERENCE_DIR = os.path.join(ROOT, "tests", "reference")


def test_itr_study_writes_parseable_csvs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "itr_study.py"), "--out-dir", str(tmp_path)],
        check=True, capture_output=True, env=env, timeout=120,
    )
    expected = {
        "itr_alpha_0.5.csv": (["pbo_db", "i_main", "i_aux", "itr_conv", "itr_intro"], 241),
        "itr_alpha_1.csv": (["pbo_db", "i_main", "i_aux", "itr_conv", "itr_intro"], 241),
        "itr_alpha_2.csv": (["pbo_db", "i_main", "i_aux", "itr_conv", "itr_intro"], 241),
        "zero_itr_asymmetry.csv": (
            ["r_opt_over_r_l", "alpha", "aux_stronger", "itr_at_second_peak"], 39
        ),
    }
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, (header, n_rows) in expected.items():
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header, name
        assert len(rows) == n_rows + 1, name
        for row in rows[1:]:
            assert len(row) == len(header), name
            [float(cell) for cell in row if cell]  # every filled cell is a number
    # past r_opt = 2 r_l no asymmetry zeroes the ITR: those rows keep only the ratio
    with open(tmp_path / "zero_itr_asymmetry.csv", newline="") as fh:
        last = list(csv.reader(fh))[-1]
    assert last[0] == "2" and last[1:] == ["", "", ""]


@pytest.mark.parametrize("script", ["combiner_study", "itr_study"])
def test_study_outputs_match_reference(script, tmp_path):
    # tests/reference/<script>/ holds the script's output at its defaults;
    # every file must come back byte for byte
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{script}.py"), "--out-dir", str(tmp_path)],
        check=True, capture_output=True, env=env, timeout=120,
    )
    reference = os.path.join(REFERENCE_DIR, script)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(reference))
    for name in os.listdir(reference):
        with open(os.path.join(reference, name), "rb") as want:
            assert (tmp_path / name).read_bytes() == want.read(), name
