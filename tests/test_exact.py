"""Exact inference oracles: brute force, Viterbi, forward-backward, and
the log-sum-exp they share."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import logsumexp as scipy_logsumexp

from gumbelmap.errors import CapacityError, StructuralError
from gumbelmap.exact import (
    _forward,
    all_state_values,
    brute_force,
    forward_backward_marginals,
    forward_log_partition,
    logsumexp,
    viterbi_clamped,
    viterbi_map,
    viterbi_map_batch,
)
from gumbelmap.cuts import clamp_variables
from gumbelmap.gumbel import perturbed_conditional_map
from gumbelmap.model import (
    CompiledPotentials,
    chain_model,
    evaluate_potential,
    grid_model,
)

from conftest import (brute_force_clamped, random_chain_potentials,
                      zero_potentials)


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
        assert res.map_value.hex() == evaluate_potential(
            p, res.map_labeling).hex()
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


class TestViterbiClamped:
    @pytest.mark.parametrize("kind", ["normal", "integer"])
    @pytest.mark.parametrize("num_vars", [1, 2, 5, 8])
    def test_rows_are_pinned_viterbi(self, rng, kind, num_vars):
        """Each row of ``viterbi_clamped``, and of the chain solver's block
        of clamps, is ``viterbi_map`` of p + z pinned at that pair alone,
        and each block value is that labeling's value on p + z less z_d(k)
        to the bit.  Tables are normal at scales 1e-2..1e2, or small
        integers with integer noise, where ties are common; the pairs
        clamp the first and the last variable and repeat variables, so
        the block pins them in several rounds."""
        tied = 0
        for _ in range(40):
            k_n = int(rng.integers(2, 5))
            shapes = (num_vars, k_n), (num_vars - 1, k_n, k_n)
            if kind == "normal":
                scale = 10.0 ** int(rng.integers(-2, 3))
                unary, pairwise, z = (rng.normal(size=s) * scale
                                      for s in shapes + shapes[:1])
            else:
                unary, pairwise, z = (rng.integers(-2, 3, size=s) * 1.0
                                      for s in shapes + shapes[:1])
            p = CompiledPotentials(chain_model(num_vars, k_n), unary,
                                   pairwise)
            pert = p.with_unary(p.unary + z)
            pairs = [(0, int(rng.integers(k_n))),
                     (num_vars - 1, int(rng.integers(k_n)))]
            pairs += [(int(rng.integers(num_vars)), int(rng.integers(k_n)))
                      for _ in range(2 * num_vars)]
            pinned = [clamp_variables(pert, {d: k}) for d, k in pairs]
            entries = [float(q.unary[d, k])
                       for q, (d, k) in zip(pinned, pairs)]
            rows = np.array(viterbi_clamped(pert, pairs, entries))
            block = perturbed_conditional_map(pert, pairs, "chain")
            vals = (evaluate_potential(pert, block)
                    - np.array([z[d, k] for d, k in pairs]))
            assert rows.shape == block.shape == (len(pairs), num_vars)
            for i, (q, (d, k)) in enumerate(zip(pinned, pairs)):
                y = viterbi_map(q)
                assert np.array_equal(rows[i], y)
                assert np.array_equal(block[i], y)
                assert (float(vals[i]).hex()
                        == float(evaluate_potential(pert, y) - z[d, k]).hex())
                if num_vars <= 5:
                    v = all_state_values(q)[1]
                    tied += int(np.count_nonzero(v == v.max()) > 1)
        if kind == "integer" and num_vars in (2, 5):
            assert tied > 0  # the integer tables do tie under the pins


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

    @pytest.mark.parametrize("num_vars,num_labels", [(1, 3), (2, 2), (8, 3),
                                                     (6, 4), (5, 9), (4, 17)])
    def test_batched_forward_bitwise(self, rng, num_vars, num_labels):
        """One forward pass over stacked chains gives each chain's alphas
        bit for bit, as the one-chain recursion does, forbidden (-inf)
        transitions and wide scales included; K >= 8 reaches numpy's
        pairwise summation."""
        n = 40
        unary = rng.normal(size=(n, num_vars, num_labels)) * 10.0 ** rng.uniform(
            -2, 3, size=(n, 1, 1))
        pairwise = rng.normal(size=(n, num_vars - 1, num_labels, num_labels))
        pairwise[rng.random(pairwise.shape) < 0.2] = -np.inf
        batched = _forward(unary, pairwise)
        assert len(batched) == num_vars
        for i in range(n):
            alpha = unary[i, 0]
            reference = [alpha]
            for d in range(1, num_vars):
                alpha = unary[i, d] + logsumexp(
                    alpha[:, None] + pairwise[i, d - 1], axis=0)
                reference.append(alpha)
            alone = _forward(unary[i], pairwise[i])
            for a, b, r in zip(batched, alone, reference):
                assert a[i].tobytes() == b.tobytes() == r.tobytes()
        # a leading axis of more than one dimension, as (2, n/2) batches
        split = _forward(unary.reshape(2, n // 2, num_vars, num_labels),
                         pairwise.reshape(2, n // 2, *pairwise.shape[1:]))
        for a, b in zip(split, batched):
            assert a.reshape(b.shape).tobytes() == b.tobytes()


# Reals at scales 1e-3..1e3, small integers (many ties) and the two
# infinities, the cases where the steps of a log-sum-exp can differ
_LSE_ELEMENTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-2, 2).map(float),
    st.sampled_from([np.inf, -np.inf]),
)


def _lse_golden_arrays():
    """A fixed, seeded set of 2-D arrays: scaled reals, small integers with
    ties, and reals with about 30% of entries set to an infinity."""
    rng = np.random.default_rng(1014)
    out = []
    for i in range(90):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        if i % 3 == 1:
            a = rng.integers(-2, 3, size=shape).astype(np.float64)
        elif i % 3 == 2:
            a[rng.random(shape) < 0.3] = rng.choice([np.inf, -np.inf])
        out.append(a)
    return out


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                           max_side=6),
                  elements=_LSE_ELEMENTS),
           st.sampled_from([None, 0, 1]))
    def test_matches_scipy(self, a, axis):
        np.testing.assert_allclose(logsumexp(a, axis=axis),
                                   scipy_logsumexp(a, axis=axis),
                                   rtol=1e-14, atol=0)

    def test_golden(self):
        """sha256 of the float.hex results over a fixed set of arrays and
        every axis; recorded with SciPy 1.17.1's logsumexp, whose steps
        exact.logsumexp follows, so it pins the bits, signed zeros
        included."""
        h = hashlib.sha256()
        for a in _lse_golden_arrays():
            for axis in (None, 0, 1):
                for v in np.ravel(logsumexp(a, axis=axis)):
                    h.update(float(v).hex().encode())
        assert h.hexdigest() == "1af534d8d8475408ff81abcca6b00d79750225cf5ee3102549dcb73286c47e52"
