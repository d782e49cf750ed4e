"""The README's examples run as written.

The package root exports nothing, so the README's import lines are the
documented library API, and its config block is the documented CLI input.
"""

import pathlib
import re

from hpheat.cli import main, parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_library_example_runs():
    namespace = {}
    exec(compile(_block("python"), str(README), "exec"), namespace)
    rear = namespace["rear"]
    assert rear.label == "T_rear"
    assert rear.values.shape == rear.times.shape == (10001,)


def test_config_example_runs(tmp_path):
    text = _block("ini")
    assert parse_config(text).n_steps == 10000
    short, count = re.subn(r"^n_steps = \d+$", "n_steps = 20", text, flags=re.M)
    assert count == 1
    config = tmp_path / "config.txt"
    config.write_text(short)
    out = tmp_path / "results"
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "transient_T_front_gk.dat",
        "transient_T_rear_gk.dat",
        "transient_q_mid_gk.dat",
    ]
