import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from cbss import metrics
from cbss.errors import DimensionError, SingularMatrixError

from conftest import random_mixing


def brute_force_md(gamma_hat, mixing):
    """Full permutation enumeration of the score; the oracle for d <= 6."""
    gain = np.asarray(gamma_hat, dtype=complex) @ np.asarray(mixing, dtype=complex)
    d = gain.shape[0]
    sq = np.abs(gain) ** 2
    cost = 1.0 - sq / sq.sum(axis=1, keepdims=True)
    best = min(sum(cost[j, perm[j]] for j in range(d))
               for perm in itertools.permutations(range(d)))
    return float(np.sqrt(max(best, 0.0) / (d - 1)))


def brute_force_assignment(cost):
    d = cost.shape[0]
    best_total, best_perm = None, None
    for perm in itertools.permutations(range(d)):
        total = sum(cost[j, perm[j]] for j in range(d))
        if best_total is None or total < best_total - 1e-12 * max(1.0, abs(best_total)):
            best_total, best_perm = total, perm
    return best_total, best_perm


def test_perfect_separation():
    assert metrics.md_index(np.eye(3), np.eye(3)) == 0.0


def test_identifiability_class_members_score_zero(rng):
    for d in (2, 3, 5):
        mixing = random_mixing(rng, d)
        phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
        perm = np.eye(d)[rng.permutation(d)]
        scales = np.diag(rng.uniform(0.5, 2.0, d))
        gamma = phases @ perm @ scales @ np.linalg.inv(mixing)
        assert metrics.md_index(gamma, mixing) < 1e-12


def test_hand_value():
    got = metrics.md_index(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    np.testing.assert_allclose(got, np.sqrt(0.5), atol=1e-9)


def test_phase_and_scale_invariance(rng):
    mixing = random_mixing(rng, 4)
    gamma = random_mixing(rng, 4)
    base = metrics.md_index(gamma, mixing)
    phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    perm = np.eye(4)[rng.permutation(4)]
    scales = np.diag(rng.uniform(0.25, 4.0, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    assert abs(metrics.md_index(phases @ gamma, mixing) - base) < 1e-12
    assert abs(metrics.md_index(scales @ perm @ gamma, mixing) - base) < 1e-12


def test_matches_brute_force(rng):
    for d in (2, 3, 4, 6):
        for _ in range(20):
            mixing = random_mixing(rng, d)
            gamma = random_mixing(rng, d)
            got = metrics.md_index(gamma, mixing)
            assert abs(got - brute_force_md(gamma, mixing)) < 1e-12


def test_range(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        got = metrics.md_index(random_mixing(rng, d), random_mixing(rng, d))
        assert 0.0 <= got <= 1.0


def test_rejections(rng):
    with pytest.raises(DimensionError):
        metrics.md_index(np.eye(1), np.eye(1))
    with pytest.raises(SingularMatrixError):
        metrics.md_index(np.eye(2), np.array([[1.0, 2.0], [0.5, 1.0]]))


@pytest.mark.parametrize("gamma_exp, mixing_exp", [(900, -1000), (1000, 100), (-1000, -100)])
def test_md_index_at_any_scale(rng, gamma_exp, mixing_exp):
    # the product of the scaled factors alone would overflow or underflow
    gamma, mixing = random_mixing(rng, 3), random_mixing(rng, 3)
    assert metrics.md_index(gamma * 2.0 ** gamma_exp, mixing * 2.0 ** mixing_exp) \
        == metrics.md_index(gamma, mixing)


def test_assignment_examples():
    np.testing.assert_array_equal(metrics.solve_assignment([[0.0, 1.0], [1.0, 0.0]]), [0, 1])
    np.testing.assert_array_equal(metrics.solve_assignment([[0.5, 0.5], [1.0, 0.0]]), [0, 1])
    # constant costs: every permutation ties; the lexicographically
    # smallest (identity) wins
    np.testing.assert_array_equal(metrics.solve_assignment(np.full((4, 4), 2.5)),
                                  [0, 1, 2, 3])


def test_assignment_matches_brute_force(rng):
    for d in (1, 2, 3, 5, 6):
        for _ in range(40):
            cost = rng.uniform(0, 1, (d, d))
            perm = metrics.solve_assignment(cost)
            total = float(cost[np.arange(d), perm].sum())
            best_total, _ = brute_force_assignment(cost)
            assert abs(total - best_total) < 1e-12
            assert sorted(perm.tolist()) == list(range(d))


def test_assignment_tie_break_is_lexicographic():
    # two optimal assignments; (0, 1) beats (1, 0) lexicographically
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(metrics.solve_assignment(cost), [0, 1])
    cost = np.array([[0.0, 0.0, 1.0],
                     [0.0, 0.0, 1.0],
                     [1.0, 1.0, 0.0]])
    np.testing.assert_array_equal(metrics.solve_assignment(cost), [0, 1, 2])


def test_assignment_rejects_bad_input():
    with pytest.raises(DimensionError):
        metrics.solve_assignment(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        metrics.solve_assignment(np.array([[np.nan, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("cap", [0, 8], ids=["refinement", "enumeration"])
def test_assignment_paths_match_brute_force_and_scipy(monkeypatch, rng, cap):
    # cap 0 sends every size through the refinement, cap 8 through enumeration
    monkeypatch.setattr(metrics, "ENUMERATION_MAX_D", cap)
    for d in range(1, 9):
        perms = np.array(list(itertools.permutations(range(d))))
        for trial in range(10):
            # small integer costs tie often and exactly; uniform ones almost never
            if trial % 2:
                cost = rng.integers(0, 3, (d, d)).astype(float)
            else:
                cost = rng.uniform(0, 1, (d, d))
            totals = cost[np.arange(d), perms].sum(axis=1)
            perm = metrics.solve_assignment(cost)
            total = float(cost[np.arange(d), perm].sum())
            rows, cols = linear_sum_assignment(cost)
            assert abs(total - totals.min()) < 1e-12
            assert abs(total - cost[rows, cols].sum()) < 1e-12
            # the lexicographically first optimum: argmin takes the first in order
            np.testing.assert_array_equal(perm, perms[np.argmin(totals)])


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_md_index_ignores_row_scale_phase_and_order(data):
    d = data.draw(st.integers(2, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mixing, gamma = random_mixing(rng, d), random_mixing(rng, d)
    exponents = data.draw(st.lists(st.integers(-600, 600), min_size=d, max_size=d))
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d))
    order = data.draw(st.permutations(range(d)))
    rows = np.ldexp(1.0, exponents) * np.exp(1j * np.array(phases))
    moved = (rows[:, None] * gamma)[list(order)]
    assert abs(metrics.md_index(moved, mixing) - metrics.md_index(gamma, mixing)) <= 1e-12
