"""Every demo script, and the README's library quick start, runs to
completion against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_quick_start(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    # the claims its comments make
    structure = scope["classify"](scope["F"])
    assert not structure.is_regular and not structure.is_weakly_union_closed
    assert scope["report"].lineality == ((1, -1, 1, -1),)
    assert scope["report"].extremal_rays == ((0, 0, 1, -1),)
    assert capsys.readouterr().out.splitlines()[-1] == "True"
