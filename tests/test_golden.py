"""Golden SHA-256 digests of the CLI artifacts for the stock config.

A change that moves any byte of these outputs moves a digest.  Moving
one is a deliberate act: record the new digest here and state the
largest deviation and its reason in CHANGES.md.  The digests depend
on numpy's own LAPACK and BLAS alone, as the package imports nothing
else; they were recorded with numpy 2.4.6 (its bundled OpenBLAS,
x86-64), and other releases may round the last bits differently.
"""

import hashlib
import json

import pytest

from quadctrl.cli import main

GOLDEN = {
    "gain": "cbeafca74a8fc71ec206cb66fdf863a77617209ca29e05f999e889dcc9e46876",
    "linearize": "2e962595ef93f8ffdee650f48caa0ffda1de615be252f400acd84d69d9874423",
    "trajectory.csv": "2634621708f8e732c8bf57f1ee86add444d4af0212c7c79eb092f147d165afe7",
    "metrics.json": "cec6b7a795370da457a80b1a231ed433a4354701d64243422af73bbf01c04e2c",
    "comparison.json": "399d5f7ac6c408af784af5a407838b922b55be35e61ffc7aae73a524e205394c",
}

# A linear-plant PID run that exercises the outer loops and the angle
# clamp (|theta| peaks at 0.548) without libm trig of nonzero angles.
PID_CONFIG = {"sim": {"plant": "linear", "t_final": 2.0},
              "case": {"id": 3, "x_ref": 1.0, "y_ref": -1.0}}
PID_GOLDEN = {
    "trajectory.csv": "0c3a869c89e8c03efb6e13c2188e6915e53f67a98eb24e44e35eb2e854062ef9",
    "metrics.json": "c3a0aef87803c32828f2d716561d7898a1b25b217941f3152850a54b33d7893d",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", ["gain", "linearize"])
def test_printed_matrices(command, capsys):
    assert main([command]) == 0
    assert sha256(capsys.readouterr().out.encode()) == GOLDEN[command]


def test_case1_lqr_run(tmp_path):
    assert main(["run", "--controller", "lqr", "--out", str(tmp_path)]) == 0
    for name in ("trajectory.csv", "metrics.json"):
        assert sha256((tmp_path / name).read_bytes()) == GOLDEN[name], name


def test_stock_compare(tmp_path):
    assert main(["compare", "--out", str(tmp_path)]) == 0
    digest = sha256((tmp_path / "comparison.json").read_bytes())
    assert digest == GOLDEN["comparison.json"]


def test_linear_pid_run_with_outer_loops(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PID_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(config), "run", "--controller", "pid",
                 "--out", str(out)]) == 0
    for name, digest in PID_GOLDEN.items():
        assert sha256((out / name).read_bytes()) == digest, name
