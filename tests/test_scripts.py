"""Smoke tests of the one-shot scripts under ``scripts/``, imported by
path so that the library calls they make keep working."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from oracles import ANTI_DESARGUES_LINES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def find_anti_desargues(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends the src directory
    spec = importlib.util.spec_from_file_location("find_anti_desargues", SCRIPTS / "find_anti_desargues.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_find_anti_desargues_keeps_one_class_and_no_realization(find_anti_desargues, capsys):
    """Forty relabelled copies of the frozen anti-Desargues lines are one
    isomorphism class, and random exact construction realizes none."""
    rng = random.Random(10)
    copies = []
    for _ in range(40):
        names = list(range(10))
        rng.shuffle(names)
        copies.append(tuple(sorted(tuple(sorted(names[p] for p in line)) for line in ANTI_DESARGUES_LINES)))
    assert len(set(copies)) > 1
    [(lines, _)] = find_anti_desargues.dedupe(copies, rng)
    assert lines in copies
    assert find_anti_desargues.try_realize(lines, rng, attempts=50) is False
    assert "invariant groups: 1" in capsys.readouterr().out
