"""Every demo runs to completion, quietly, against the package under test."""

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0_with_empty_stderr(demo, tmp_path, fresh_python):
    done = fresh_python([str(demo)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_demos_are_found():
    # an empty glob would parametrize nothing and pass silently
    assert DEMOS
