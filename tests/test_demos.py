"""Every demo script, and the README's examples, run against the current
API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from proxkit import list_solvers, parse_config_text

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def _readme_block(lang):
    (block,) = re.findall(r"```%s\n(.*?)```" % lang, README, re.S)
    return block


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # demo 05 writes its bundle to a temp dir
    env.pop("PROXKIT_SEED_OFFSET", None)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_quadratic(capsys):
    exec(_readme_block("python"), {})
    assert capsys.readouterr().out == "quadratic\n"


def test_readme_config_parses():
    cfg = parse_config_text(_readme_block("ini"))
    assert [arm[1] for arm in cfg.arms] == ["catalyst-gd", "gd"]


def test_readme_names_every_solver():
    for name in list_solvers():
        assert "`%s`" % name in README, name
