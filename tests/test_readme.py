"""The README's examples run as written: the Python blocks, and every
``sparsecert`` line of its ``sh`` blocks on small versions of the files
they name."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from sparsecert import cli, serialize, structures
from sparsecert.certify import Certificate
from sparsecert.recovery import RecoveryProblem

_README = Path(__file__).parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", _README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every ```python block of the README runs to its end, so a public name
    it uses cannot be removed or renamed without this failing."""
    blocks = _blocks("python")
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})


def _write_example_files():
    """p.json, st.json, a.csv, lr.json, cert.json and config.json in the
    working directory: one 4-column A serves plain n=4 and low rank 2x2."""
    a = np.random.default_rng(5).standard_normal((3, 4))
    serialize.save_matrix("a.csv", a)
    plain = structures.build_plain(4)
    serialize.save_json("st.json", structures.structure_to_dict(plain))
    serialize.save_json("lr.json", structures.structure_to_dict(
        structures.build_lowrank(2, 2)))
    x0 = np.array([0.0, 1.5, 0.0, 0.0])
    serialize.save_problem("p.json", RecoveryProblem(
        a=a, b=None, y=a @ x0, phi="l1", epsilon=0.1), plain)
    serialize.save_certificate("cert.json", Certificate(
        gamma=0.4, beta=1.5, s=1.0, phi="l1", method="ColumnLP"))
    serialize.save_json("config.json", {
        "structure": {"kind": "plain", "n": 4},
        "matrix": {"gaussian": {"m": 3, "seed": 3}},
        "signal": {"s": 1, "seed": 11},
        "noise": {"epsilon": [0.01, 0.1], "law": "ball", "seed": 7},
        "recovery": ["regular", "penalized"],
        "certificate": {"method": "synth", "phi": "l1"},
        "trials": 2,
        "output": {"table": "rows.csv", "summary": "summary.json"}})


def test_readme_sh_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``sparsecert`` line of the README's ```sh blocks, run in order
    through ``cli.main``, ends with an exit code of the README's table
    other than 1 (bad input: the files fit every line) and no traceback."""
    table = re.findall(r"^\| (\d+) +\|", _README.read_text(), re.MULTILINE)
    documented = {int(code) for code in table}
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("sparsecert ")]
    assert len(lines) >= 8 and {0, 1, 4} <= documented
    monkeypatch.chdir(tmp_path)
    _write_example_files()
    for line in lines:
        try:
            code = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:     # argparse refused the line
            raise AssertionError(f"{line}: exit {exc.code}") from exc
        out = capsys.readouterr()
        assert code in documented - {1}, (line, code, out.err)
        assert "Traceback" not in out.out + out.err, line
    assert json.loads(Path("summary.json").read_text())["trials"] == 2
