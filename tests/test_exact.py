"""Exact inference oracles: brute force, Viterbi, forward-backward."""

import numpy as np
import pytest

from gumbelmap.errors import CapacityError, StructuralError
from gumbelmap.exact import (
    all_state_values,
    brute_force,
    brute_force_clamped,
    chain_log_likelihood,
    crf_exact_gradient,
    forward_backward_marginals,
    forward_log_partition,
    viterbi_map,
    viterbi_map_batch,
)
from gumbelmap.model import (
    CompiledPotentials,
    FeatureInstance,
    WeightLayout,
    WeightVector,
    chain_model,
    evaluate_potential,
    grid_model,
    zero_potentials,
)

from conftest import random_chain_potentials


class TestBruteForce:
    def test_single_binary_uniform(self):
        p = zero_potentials(chain_model(1, 2))
        res = brute_force(p)
        assert res.log_partition == pytest.approx(np.log(2.0), abs=1e-12)
        assert np.allclose(res.marginals[0], [0.5, 0.5])

    def test_single_binary_closed_form(self):
        # u = (1, 0): A = log(1 + e); MAP is the label with u = 1 (index 0)
        m = chain_model(1, 2)
        p = CompiledPotentials(m, np.array([[1.0, 0.0]]), np.zeros((0, 2, 2)))
        res = brute_force(p)
        assert res.log_partition == pytest.approx(np.log(1 + np.e), abs=1e-12)
        assert res.map_labeling.tolist() == [0]
        assert res.map_value == 1.0

    def test_two_independent_binary(self):
        m = chain_model(2, 2)
        res = brute_force(zero_potentials(m))
        assert res.log_partition == pytest.approx(np.log(4.0), abs=1e-12)
        for d in range(2):
            assert np.allclose(res.marginals[d], [0.5, 0.5], atol=1e-12)

    def test_map_value_consistency(self, rng):
        p = random_chain_potentials(rng)
        res = brute_force(p)
        assert res.map_value == pytest.approx(
            evaluate_potential(p, res.map_labeling), abs=1e-12)
        assert res.map_value <= res.log_partition + 1e-12

    def test_tie_break_lexicographic(self):
        res = brute_force(zero_potentials(chain_model(3, 2)))
        assert res.map_labeling.tolist() == [0, 0, 0]

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            brute_force(zero_potentials(chain_model(25, 3)))

    def test_clamped_partitions_sum_to_one(self, rng):
        """sum_k exp(B(f, y_d=k) - A) = 1: clamped log-partitions tile A."""
        for _ in range(10):
            p = random_chain_potentials(rng)
            res = brute_force(p)
            for d in range(p.model.num_vars):
                total = sum(
                    np.exp(brute_force_clamped(p, d, k)[0] - res.log_partition)
                    for k in range(p.model.num_labels))
                assert total == pytest.approx(1.0, abs=1e-9)


class TestViterbi:
    def test_unary_only_argmax(self, rng):
        m = chain_model(5, 3)
        u = rng.normal(size=(5, 3))
        p = CompiledPotentials(m, u, np.zeros((4, 3, 3)))
        assert viterbi_map(p).tolist() == list(np.argmax(u, axis=1))

    def test_all_zero_ties_to_zero_labeling(self):
        assert viterbi_map(zero_potentials(chain_model(6, 3))).tolist() == [0] * 6

    def test_matches_brute_force_value(self, rng):
        for _ in range(25):
            p = random_chain_potentials(rng, num_vars=6, num_labels=3)
            y = viterbi_map(p)
            assert evaluate_potential(p, y) == pytest.approx(
                brute_force(p).map_value, abs=1e-9)

    def test_requires_chain(self):
        with pytest.raises(StructuralError):
            viterbi_map(zero_potentials(grid_model(2, 2)))

    def test_batch_matches_single(self, rng):
        """The list kernel and the numpy batch kernel agree label for label:
        on continuous noise, and on small-integer tables, where ties are
        common, for D = 1, 2, 5 and K = 2..6."""
        p = random_chain_potentials(rng, num_vars=6, num_labels=3)
        noise = rng.normal(size=(32, 6, 3))
        cases = [(p.model, p.unary[None] + noise, p.pairwise)]
        for d_n in (1, 2, 5):
            for k in range(2, 7):
                unary = rng.integers(-1, 2, size=(16, d_n, k)).astype(float)
                pairwise = rng.integers(-1, 2, size=(d_n - 1, k, k))
                cases.append((chain_model(d_n, k), unary,
                              pairwise.astype(float)))
        tied = 0
        for model, unary, pairwise in cases:
            labels = viterbi_map_batch(unary, pairwise)
            for i in range(len(unary)):
                q = CompiledPotentials(model, unary[i], pairwise)
                assert np.array_equal(labels[i], viterbi_map(q))
                vals = all_state_values(q)[1]
                tied += int(np.count_nonzero(vals == vals.max()) > 1)
        assert tied > 100  # the integer tables do tie


class TestForwardBackward:
    def test_zero_potentials_closed_form(self):
        p = zero_potentials(chain_model(4, 3))
        assert forward_log_partition(p) == pytest.approx(4 * np.log(3), abs=1e-12)
        q = forward_backward_marginals(p)
        for d in range(4):
            assert np.allclose(q[d], 1 / 3, atol=1e-12)

    def test_separable_factorizes(self, rng):
        from scipy.special import logsumexp, softmax
        m = chain_model(5, 3)
        u = rng.normal(size=(5, 3))
        p = CompiledPotentials(m, u, np.zeros((4, 3, 3)))
        expected = sum(logsumexp(u[d]) for d in range(5))
        assert forward_log_partition(p) == pytest.approx(expected, abs=1e-10)
        q = forward_backward_marginals(p)
        for d in range(5):
            assert np.allclose(q[d], softmax(u[d]), atol=1e-10)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            p = random_chain_potentials(rng)
            bf = brute_force(p)
            assert forward_log_partition(p) == pytest.approx(
                bf.log_partition, abs=1e-9)
            q = forward_backward_marginals(p)
            for d in range(p.model.num_vars):
                assert np.allclose(q[d], bf.marginals[d], atol=1e-9)

    def test_rows_sum_to_one(self, rng):
        p = random_chain_potentials(rng)
        q = forward_backward_marginals(p)
        for d in range(p.model.num_vars):
            assert q[d].sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginals_shift_invariant(self, rng):
        """Adding a constant to a unary table leaves marginals unchanged."""
        p = random_chain_potentials(rng, num_vars=5, num_labels=3)
        q1 = forward_backward_marginals(p)
        u2 = p.unary.copy()
        u2[2] += 7.5
        q2 = forward_backward_marginals(p.with_unary(u2))
        assert np.allclose(q1, q2, atol=1e-9)

    def test_map_scale_covariance(self, rng):
        """The MAP value scales linearly under joint positive rescaling."""
        p = random_chain_potentials(rng, num_vars=5, num_labels=2)
        v1 = brute_force(p).map_value
        p2 = CompiledPotentials(p.model, 3.0 * p.unary, 3.0 * p.pairwise)
        assert brute_force(p2).map_value == pytest.approx(3.0 * v1, rel=1e-12)


class TestCrfGradient:
    def _instance(self, rng, num_vars=4, num_labels=2, feat=3):
        layout = WeightLayout(num_labels, feat, 1)
        m = chain_model(num_vars, num_labels)
        x = FeatureInstance(m, rng.normal(size=(num_vars, feat)),
                            np.ones((num_vars - 1, 1)),
                            rng.integers(0, num_labels, size=num_vars))
        return layout, x

    def test_matches_finite_differences(self, rng):
        layout, x = self._instance(rng)
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        grad = crf_exact_gradient(w, x, x.labels)
        eps = 1e-4
        for i in range(layout.total_size):
            wp, wm = w.values.copy(), w.values.copy()
            wp[i] += eps
            wm[i] -= eps
            fp = chain_log_likelihood(WeightVector(wp, layout), x, x.labels)
            fm = chain_log_likelihood(WeightVector(wm, layout), x, x.labels)
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))

    def test_single_variable_closed_form(self, rng):
        from scipy.special import softmax
        from gumbelmap.model import compile_potentials, feature_map
        layout, _ = self._instance(rng, num_vars=1)
        m = chain_model(1, 2)
        x = FeatureInstance(m, rng.normal(size=(1, 3)), np.ones((0, 1)),
                            np.array([1]))
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        p = compile_potentials(w, x)
        probs = softmax(p.unary[0])
        expected = feature_map(x, np.array([1]), layout).copy()
        for k in range(2):
            expected -= probs[k] * feature_map(x, np.array([k]), layout)
        assert np.allclose(crf_exact_gradient(w, x, x.labels), expected,
                           atol=1e-10)

    def test_requires_full_labels(self, rng):
        layout, x = self._instance(rng)
        partial = FeatureInstance(x.model, x.node_features, x.edge_features,
                                  np.array([0, -1, 1, 0]))
        w = WeightVector(np.zeros(layout.total_size), layout)
        with pytest.raises(StructuralError):
            crf_exact_gradient(w, partial, partial.labels)
