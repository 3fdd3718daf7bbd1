"""``tools/output_digest.py``'s ``--seeds`` parsing, without running the pipeline."""

import importlib.util
import os
import pathlib
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


@pytest.fixture()
def digest(monkeypatch):
    """The tool as a module whose ``run_seed`` records seeds instead of running
    them; ``main``'s changes to the environment and ``sys.path`` are undone."""
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    module.ran = []

    def run_seed(seed, recall_boost):
        module.ran.append(seed)
        return "d" * 64, 13, "p" * 64

    monkeypatch.setattr(module, "run_seed", run_seed)
    return module


@pytest.mark.parametrize("text, seeds", [
    ("0-4", [0, 1, 2, 3, 4]),
    ("4,3,2,1,0", [4, 3, 2, 1, 0]),
    ("0", [0]),
    ("3-3,7", [3, 7]),
    ("10-12,0", [10, 11, 12, 0]),
])
def test_seeds_are_run_in_the_order_given(digest, capsys, text, seeds):
    assert digest.parse_seeds(text) == seeds
    assert digest.main(["--seeds", text]) == 0
    assert digest.ran == seeds
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"seed {s}: {'d' * 64} (13 files) plan {'p' * 64}" for s in seeds]


def test_the_default_is_seeds_0_to_4(digest):
    assert digest.main([]) == 0
    assert digest.ran == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("text, message", [
    ("4-0", "'4-0' is a reversed range"),
    ("", "'' is not a seed or a range lo-hi"),
    ("0,", "'' is not a seed or a range lo-hi"),
    ("x", "'x' is not a seed or a range lo-hi"),
    ("-1", "'-1' is not a seed or a range lo-hi"),
    ("0-", "'0-' is not a seed or a range lo-hi"),
    ("1-2-3", "'1-2-3' is not a seed or a range lo-hi"),
    ("1.5", "'1.5' is not a seed or a range lo-hi"),
    ("²", "'²' is not a seed or a range lo-hi"),
])
def test_a_seed_list_that_names_no_seed_exits_2(digest, capsys, text, message):
    with pytest.raises(SystemExit) as exc:
        digest.main(["--seeds", text])
    assert exc.value.code == 2
    assert f"argument --seeds: {message}" in capsys.readouterr().err
    assert digest.ran == []
