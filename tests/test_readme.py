"""The README's Python examples run, and give the values their comments state.

A comment that starts with a number states the value of its line: the
expression itself, or a ``print`` call's first argument.  "0.00529..."
states the leading digits; a plain number states the value to a relative
1e-15, the rounding that a sum of a few doubles may leave.  The README's
run config passes the checks that `nnrates run` makes before it runs, and
each `nnrates bounds eval` line of its shell examples prints the ``# ``
lines that follow it, exactly.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from nnrates._schema import fields
from nnrates.cli import _ROOT, _validate_experiment, main
from nnrates.distributions import load_distribution

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


@pytest.mark.parametrize("index", [0, 2], ids=["library_tour", "exact_oracle"])
def test_readme_examples_match_their_comments(index, capsys):
    block = python_blocks()[index]
    namespace: dict = {}
    exec(block, namespace)
    capsys.readouterr()
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        claim = re.match(r"\s*(\d[\d.]*(?:\.\.\.)?)", comment)
        if claim is None:
            continue
        code = code.strip()
        if code.startswith("print("):
            value = eval(f"({code[len('print('):-1]},)", namespace)[0]
        else:
            value = eval(code, namespace)
        stated = claim.group(1)
        if stated.endswith("..."):
            assert str(value).startswith(stated[:-3]), (code, value)
        else:
            assert value == pytest.approx(float(stated), rel=1e-15, abs=0.0), (code, value)
        checked += 1
    assert checked >= 2


def test_readme_run_config_validates():
    # each block is checked as `nnrates run` checks it, and none is run
    config = json.loads(re.findall(r"```json\n(.*?)```", README.read_text(), re.S)[0])
    root = fields(config, _ROOT, "config")
    dist = load_distribution(root["distribution"])
    kinds = [_validate_experiment(i, b, dist, 400, root["seed"])[0] for i, b in enumerate(root["experiments"])]
    assert kinds == ["upper_bound", "lower_bound", "excess", "rate_sweep", "consistency"]


def test_readme_bounds_eval_lines_print_their_comments(capsys):
    lines = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)).splitlines()
    checked = 0
    for i, line in enumerate(lines):
        if not line.startswith("nnrates bounds eval "):
            continue
        stated = []
        for comment in lines[i + 1:]:
            if not comment.startswith("# "):
                break
            stated.append(comment[2:])
        assert main(shlex.split(line)[1:]) == 0
        assert capsys.readouterr().out.splitlines() == stated, line
        checked += 1
    assert checked == 2
