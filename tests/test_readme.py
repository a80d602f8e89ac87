"""The README's library tour runs as written and says what the code does."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs the block one statement at a time and prints the repr of each
# expression statement's value, keyed by its source.
RUNNER = """
import ast, json, sys
source = sys.stdin.read()
names, values = {}, {}
for node in ast.parse(source).body:
    code = ast.get_source_segment(source, node)
    if isinstance(node, ast.Expr):
        values[code] = repr(eval(code, names))
    else:
        exec(code, names)
values["bayes.density(2.0)"] = repr(eval("bayes.density(2.0)", names))
print(json.dumps(values))
"""


def library_tour() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs_and_keeps_its_comments():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", RUNNER], input=library_tour(), capture_output=True, text=True, check=True, env=env
    ).stdout
    values = json.loads(out)
    snml, bayes = float(values["snml.density(2.0)"]), float(values["bayes.density(2.0)"])
    # 1/(1+x)^2 for this family; equals bayes.density(2.0)
    assert snml == pytest.approx(1.0 / 9.0, rel=1e-9)
    assert bayes == pytest.approx(snml, rel=1e-9)
    # a comment that opens with a capitalized name (Constant, NonConstant,
    # Tweedie32Class) claims the value of an enum
    claims = {}
    for line in library_tour().splitlines():
        code, _, comment = line.partition("#")
        word = comment.split()[0].rstrip(",") if comment.strip() else ""
        if code.strip() and re.fullmatch(r"[A-Z]\w*", word):
            claims[code.strip()] = word
    assert claims["sk.exchangeability_test(sk.Poisson(), m=1, n=3).verdict"] == "NonConstant"
    assert claims["sk.classify_family(vf).family_class"] == "Tweedie32Class"
    for code, word in claims.items():
        assert f"'{word}'" in values[code], code
