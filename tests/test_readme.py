"""The README's Python examples run, and give the values their comments state.

A comment that starts with a number states the value of its line: the
expression itself, or a ``print`` call's first argument.  "0.00529..."
states the leading digits; a plain number states the value to a relative
1e-15, the rounding that a sum of a few doubles may leave.
"""

import re
from pathlib import Path

import pytest

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
