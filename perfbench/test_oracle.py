"""Tests of the benchmark's oracle.  Run from the checkout root:

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle  # noqa: E402
from oracle import DIVERGENT, FINITE, INCONCLUSIVE  # noqa: E402


def test_expected_kind_follows_the_jump_boundary():
    assert oracle.expected_kind("jump_1d", [0.0], [1.0], q=1.0, s=1.0) == DIVERGENT
    assert oracle.expected_kind("jump_1d", [0.0], [-1.0], q=2.0, s=0.0) == FINITE
    assert oracle.expected_kind("jump_1d", [0.0], [1.0], q=1.0, s=0.0) is None
    assert oracle.expected_kind("jump_1d", [0.0], [1.0], q=math.inf, s=1.5) == DIVERGENT
    assert oracle.expected_kind("jump_1d", [2.0], [1.0], q=1.0, s=1.0) == FINITE


def test_expected_kind_on_the_line_needs_a_cone_around_the_normal():
    diag = math.sqrt(0.5)
    line = "line_singularity_2d"
    assert oracle.expected_kind(line, [0.0, 0.5], [-1.0, 0.0], q=1.0, s=1.0) == DIVERGENT
    assert oracle.expected_kind(line, [0.0, 0.5], [0.0, 1.0], q=1.0, s=1.0) == FINITE
    assert oracle.expected_kind(line, [0.0, 0.5], [diag, diag], q=1.0, s=1.0) == FINITE
    tilt = [math.cos(math.radians(19.0)), math.sin(math.radians(19.0))]
    assert oracle.expected_kind(line, [0.0, 0.5], tilt, q=1.0, s=1.0) == DIVERGENT
    assert oracle.expected_kind(line, [0.0, 2.5], [1.0, 0.0], q=1.0, s=1.0) == FINITE
    assert oracle.expected_kind(line, [2.0, 0.0], [1.0, 0.0], q=1.0, s=1.0) == FINITE


def test_smooth_fixtures_have_no_wavefront_set():
    assert oracle.expected_kind("smooth_bump_1d", [0.0], [1.0], q=1.0, s=5.0) == FINITE
    with pytest.raises(ValueError):
        oracle.expected_kind("unknown", [0.0], [1.0], q=1.0, s=1.0)


def test_judge_passes_agreeing_correct_routes():
    assert oracle.judge(DIVERGENT, DIVERGENT, DIVERGENT) is None
    assert oracle.judge(FINITE, FINITE, FINITE) is None


def test_judge_rejects_a_flipped_verdict():
    assert oracle.judge(FINITE, DIVERGENT, DIVERGENT) == "contradiction"
    assert oracle.judge(DIVERGENT, INCONCLUSIVE, FINITE) == "contradiction"


def test_judge_rejects_a_route_disagreement():
    assert oracle.judge(FINITE, FINITE, DIVERGENT) == "route_disagreement"
    assert oracle.judge(None, FINITE, DIVERGENT) == "route_disagreement"


def test_judge_rejects_a_raised_error():
    assert oracle.judge(FINITE, RuntimeError("DomainClipped"), FINITE) == "raised"
    assert oracle.judge(None, FINITE, ValueError("bad")) == "raised"


def test_judge_accepts_inconclusive_verdicts():
    assert oracle.judge(DIVERGENT, INCONCLUSIVE, DIVERGENT) is None
    assert oracle.judge(FINITE, INCONCLUSIVE, INCONCLUSIVE) is None
    assert oracle.judge(None, INCONCLUSIVE, FINITE) is None


def test_judge_refuses_a_value_that_is_no_verdict():
    with pytest.raises(ValueError):
        oracle.judge(FINITE, "maybe", FINITE)


def test_roundtrip_rel_l2():
    a = np.array([3.0, 4.0], dtype=complex)
    assert oracle.roundtrip_rel_l2(a, a) == 0.0
    assert oracle.roundtrip_rel_l2(a, a + np.array([0.0, 0.5])) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        oracle.roundtrip_rel_l2(a, a[:1])


def test_partition_sum_of_a_built_pair_is_constant():
    microloc = pytest.importorskip("microloc")
    for alpha, beta, eps in ((1.0, 1.0, 1.0), (1.3, 2.1, 0.25)):
        sys0 = microloc.build_agp(alpha, beta, 1).with_epsilon(eps)
        assert oracle.partition_deviation(sys0.phi, sys0.psi, alpha, beta, eps) <= 1e-10
    sys2 = microloc.build_agp(2.0, 1.0, 2, alpha1=5.0)
    assert oracle.partition_deviation(sys2.phi, sys2.psi, 2.0, 1.0, 1.0, d=2, n=48) <= 1e-10


def test_partition_sum_detects_a_wrong_window():
    microloc = pytest.importorskip("microloc")
    sys0 = microloc.build_agp(1.0, 1.0, 1)

    def skewed(t):
        return sys0.psi(t) * (1.0 + 1e-3 * np.asarray(t)[:, 0])

    assert oracle.partition_deviation(sys0.phi, skewed, 1.0, 1.0, 1.0) > 1e-6
