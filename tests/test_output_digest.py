"""tools/output_digest.py: per-group values, --dump files and the largest
relative difference that --against reports next to the SHA-256 verdict."""

import importlib.util
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "output_digest.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _group(scale=1.0, cell="0.5", pole=1e-15):
    return [{"C_meas": 2.0, "trace_max": pole, "error": ""},
            (np.array([[1.0, -4.0], [0.0, 2.0]]) * scale, None),
            f"alpha,C_meas\n0.25,{cell}\n"]


def test_max_rel_diff_is_per_leaf_with_its_path(tool):
    before = tool._digest(_group())
    assert tool._digest(_group())[0] == before[0]
    assert tool.max_rel_diff(tool._digest(_group())[1:], before[1:]) \
        == (0.0, "")
    # an array leaf moves relative to its largest magnitude, 4
    moved = tool._digest(_group(scale=1.0 + 1e-9))
    assert moved[0] != before[0]
    rel, path = tool.max_rel_diff(moved[1:], before[1:])
    assert rel == pytest.approx(1e-9, rel=1e-6) and path == "[1][0]"
    # a ledger cell is its own leaf, at @row:column of the text
    assert tool.max_rel_diff(tool._digest(_group(cell="0.75"))[1:],
                             before[1:]) == (0.5, "[2]@1:1")
    # rounding noise in a diagnostic reads as a large relative change
    assert tool.max_rel_diff(tool._digest(_group(pole=3e-15))[1:],
                             before[1:]) == (pytest.approx(2.0), "[0].trace_max")
    # a leaf that appears or goes leaves nothing to compare
    assert tool.max_rel_diff(tool._digest(_group(cell="n/a"))[1:],
                             before[1:]) is None


def test_dump_round_trip(tool, tmp_path):
    digested = {"a/b": tool._digest(_group()),
                "c": tool._digest(_group(scale=2.0))}
    path = str(tmp_path / "before.npz")
    tool.dump(path, digested)
    loaded = tool.load(path)
    assert list(loaded) == list(digested)
    for name, (sha, *leaves) in loaded.items():
        assert sha == digested[name][0]
        for got, want in zip(leaves, digested[name][1:]):
            assert np.array_equal(got, want)
