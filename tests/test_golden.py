"""Golden SHA-256 digests of the CLI artifacts for the stock config.

A change that moves any byte of these outputs moves a digest.  Moving
one is a deliberate act: record the new digest here and state the
largest deviation and its reason in CHANGES.md.  The digests were
recorded with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS, x86-64); other
releases may round the last bits differently.
"""

import hashlib

import pytest

from quadctrl.cli import main

GOLDEN = {
    "gain": "43ccb549d1956d5728198a3f43032bc0fc0488e87403c158eb60fc19d31996bc",
    "linearize": "2e962595ef93f8ffdee650f48caa0ffda1de615be252f400acd84d69d9874423",
    "trajectory.csv": "bb9f33d458dbd0368505bd59d4f11b11da4fbd049a528c936e3fe94102a295a2",
    "metrics.json": "cec6b7a795370da457a80b1a231ed433a4354701d64243422af73bbf01c04e2c",
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
