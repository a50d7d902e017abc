"""Core types: potentials, the linear parameterization, and losses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gumbelmap.errors import DegenerateInstanceError, StructuralError
from gumbelmap.model import (
    CompiledPotentials,
    FeatureInstance,
    HAMMING,
    LossSpec,
    PAIRWISE_POTTS,
    VOLUME_BALANCED,
    WEIGHTED_HAMMING,
    WeightLayout,
    WeightVector,
    ZERO_ONE,
    chain_model,
    compile_potentials,
    evaluate_potential,
    feature_map,
    grid_model,
    loss,
    volume_weights,
    zero_potentials,
)


class TestPairwiseModel:
    def test_chain_edges(self):
        m = chain_model(4, 3)
        assert m.edges == ((0, 1), (1, 2), (2, 3))
        assert m.is_chain
        # chain structure is read off the edges, whatever built them
        assert grid_model(1, 4).is_chain
        assert not grid_model(2, 2).is_chain

    def test_grid_edges_sorted_and_valid(self):
        m = grid_model(3, 4)
        assert m.num_vars == 12
        assert list(m.edges) == sorted(m.edges)
        assert len(set(m.edges)) == len(m.edges)
        assert all(i < j < 12 for i, j in m.edges)

    def test_rejects_bad_edges(self):
        with pytest.raises(StructuralError):
            chain_model(3, 2).__class__(3, 2, ((0, 0),))
        with pytest.raises(StructuralError):
            chain_model(3, 2).__class__(3, 2, ((1, 0),))
        with pytest.raises(StructuralError):
            chain_model(3, 2).__class__(3, 2, ((0, 1), (0, 1)))


class TestEvaluatePotential:
    def test_zero_tables(self, rng):
        m = grid_model(2, 3)
        p = zero_potentials(m)
        y = rng.integers(0, 2, size=6)
        assert evaluate_potential(p, y) == 0.0

    def test_unary_only_sum(self):
        m = chain_model(2, 2)
        p = CompiledPotentials(m, np.array([[1.0, 0.0], [0.0, 2.0]]),
                               np.zeros((1, 2, 2)))
        assert evaluate_potential(p, np.array([0, 1])) == 3.0

    def test_matches_direct_resummation(self, rng):
        m = chain_model(3, 3)
        u = rng.normal(size=(3, 3))
        pw = rng.normal(size=(2, 3, 3))
        p = CompiledPotentials(m, u, pw)
        y = rng.integers(0, 3, size=3)
        expected = sum(u[d, y[d]] for d in range(3))
        expected += sum(pw[e, y[i], y[j]] for e, (i, j) in enumerate(m.edges))
        assert evaluate_potential(p, y) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_raises(self):
        p = zero_potentials(chain_model(3, 2))
        with pytest.raises(StructuralError):
            evaluate_potential(p, np.array([0, 1]))
        with pytest.raises(StructuralError):
            evaluate_potential(p, np.array([0, 1, 2]))


def _random_instance(rng, model, layout, labeled=True):
    nf = rng.normal(size=(model.num_vars, layout.node_feat_dim))
    ef = np.abs(rng.normal(size=(model.num_edges, layout.edge_feat_dim)))
    labels = rng.integers(0, model.num_labels,
                          size=model.num_vars) if labeled else None
    return FeatureInstance(model, nf, ef, labels)


class TestCompileAndFeatures:
    """compile and the feature map are two sides of f(y|x) = <w, Psi(x,y)>."""

    def test_zero_weights_zero_tables(self, rng):
        layout = WeightLayout(3, 2, 2)
        x = _random_instance(rng, chain_model(4, 3), layout)
        p = compile_potentials(WeightVector(np.zeros(layout.total_size), layout), x)
        assert not p.unary.any() and not p.pairwise.any()

    def test_identity_unary_weights_pick_basis(self):
        layout = WeightLayout(2, 2, 1)
        m = chain_model(2, 2)
        nf = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = FeatureInstance(m, nf, np.ones((1, 1)))
        values = np.zeros(layout.total_size)
        wu = values[: layout.unary_size].reshape(2, 2)
        wu[0, 0] = 1.0  # label 0 reads feature 0
        wu[1, 1] = 1.0  # label 1 reads feature 1
        p = compile_potentials(WeightVector(values, layout), x)
        assert p.unary[0, 0] == 1.0 and p.unary[0, 1] == 0.0
        assert p.unary[1, 1] == 1.0 and p.unary[1, 0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 3),
           st.sampled_from(["full", "potts"]))
    def test_evaluate_equals_inner_product(self, seed, num_vars, num_labels,
                                           form):
        """For all y: evaluate(compile(w, x), y) == <w, Psi(x, y)>."""
        rng = np.random.default_rng(seed)
        layout = WeightLayout(num_labels, 3, 2, form)
        model = chain_model(num_vars, num_labels)
        x = _random_instance(rng, model, layout)
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        y = rng.integers(0, num_labels, size=num_vars)
        lhs = evaluate_potential(compile_potentials(w, x), y)
        rhs = float(w.values @ feature_map(x, y, layout))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_feature_gradient_by_finite_differences(self, rng):
        """Psi is the w-gradient of f(y|x)."""
        layout = WeightLayout(2, 3, 1)
        model = chain_model(3, 2)
        x = _random_instance(rng, model, layout)
        y = x.labels
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        psi = feature_map(x, y, layout)
        eps = 1e-4
        for i in range(layout.total_size):
            wp, wm = w.values.copy(), w.values.copy()
            wp[i] += eps
            wm[i] -= eps
            fp = evaluate_potential(compile_potentials(WeightVector(wp, layout), x), y)
            fm = evaluate_potential(compile_potentials(WeightVector(wm, layout), x), y)
            assert (fp - fm) / (2 * eps) == pytest.approx(psi[i], abs=1e-6)

    def test_feature_locality(self, rng):
        """Changing one label touches only its unary row and incident edges."""
        layout = WeightLayout(3, 2, 1)
        model = chain_model(5, 3)
        x = _random_instance(rng, model, layout)
        y1 = np.array([0, 1, 2, 0, 1])
        y2 = y1.copy()
        y2[2] = 0
        diff = feature_map(x, y1, layout) - feature_map(x, y2, layout)
        changed_blocks = np.nonzero(diff)[0]
        # only the old and new label rows of the unary block move
        uview = diff[: layout.unary_size].reshape(3, 2)
        assert set(np.nonzero(uview.any(axis=1))[0].tolist()) <= {0, 2}
        # pairwise changes touch only rows involving the flipped variable
        pview = diff[layout.unary_size:].reshape(3, 3, 1)
        touched = {(i, j) for i, j in zip(*np.nonzero(pview.any(axis=2)))}
        old_new = {(y1[1], y1[2]), (y1[1], y2[2]), (y1[2], y1[3]),
                   (y2[2], y2[3])}
        assert touched <= {(int(a), int(b)) for a, b in old_new}
        assert changed_blocks.size > 0

    def test_potts_pairwise_counts_disagreements(self, rng):
        layout = WeightLayout(2, 2, 1, PAIRWISE_POTTS)
        model = chain_model(4, 2)
        x = FeatureInstance(model, rng.normal(size=(4, 2)), np.ones((3, 1)))
        psi = feature_map(x, np.array([0, 1, 1, 0]), layout)
        assert psi[layout.unary_size] == 2.0  # two disagreeing edges

    def test_dimension_mismatch(self, rng):
        layout = WeightLayout(2, 3, 1)
        model = chain_model(3, 2)
        x = FeatureInstance(model, rng.normal(size=(3, 2)), np.ones((2, 1)))
        w = WeightVector(np.zeros(layout.total_size), layout)
        with pytest.raises(StructuralError):
            compile_potentials(w, x)


class TestBatchedKernels:
    """An (n, D) block evaluates and maps row by row to the bits of the
    (D,) calls, in one fixed order."""

    @pytest.mark.parametrize("form", ["full", "potts"])
    @pytest.mark.parametrize("num_labels", [2, 3])
    @pytest.mark.parametrize("edge_dim", [1, 3])
    def test_rows_equal_scalar_calls_bitwise(self, rng, form, num_labels,
                                             edge_dim):
        layout = WeightLayout(num_labels, 3, edge_dim, form)
        model = grid_model(4, 5, num_labels)
        for _ in range(5):
            x = FeatureInstance(model, rng.normal(size=(20, 3)),
                                rng.random((model.num_edges, edge_dim)) * 3)
            w = WeightVector(rng.normal(size=layout.total_size), layout)
            p = compile_potentials(w, x)
            block = rng.integers(0, num_labels, size=(12, 20))
            vals = evaluate_potential(p, block)
            psi = feature_map(x, block, layout)
            assert vals.shape == (12,)
            assert psi.shape == (12, layout.total_size)
            for row, v, f in zip(block, vals, psi):
                scalar = evaluate_potential(p, row)
                assert isinstance(scalar, float)
                assert float(v).hex() == scalar.hex()
                assert f.tobytes() == feature_map(x, row, layout).tobytes()

    def test_potts_edge_part_is_a_sequential_sum(self, rng):
        """The disagreeing edges' features are added in edge order from
        0.0: a pairwise ``sum`` would round differently on most of these
        masks."""
        model = grid_model(7, 6)
        layout = WeightLayout(2, 1, 1, PAIRWISE_POTTS)
        differs = 0
        for _ in range(50):
            ef = rng.random((model.num_edges, 1))
            x = FeatureInstance(model, rng.normal(size=(42, 1)), ef)
            y = rng.integers(0, 2, size=42)
            expected = 0.0
            for e, (i, j) in enumerate(model.edges):
                if y[i] != y[j]:
                    expected += float(ef[e, 0])
            got = feature_map(x, y, layout)[layout.unary_size]
            assert got.hex() == expected.hex()
            mask = y[model.edge_array()[:, 0]] != y[model.edge_array()[:, 1]]
            differs += float(ef[mask].sum(axis=0)[0]) != expected
        assert differs > 0  # the order matters on these tables

    def test_out_of_range_row_raises_like_the_scalar_call(self, rng):
        model = chain_model(5, 3)
        p = CompiledPotentials(model, rng.normal(size=(5, 3)),
                               rng.normal(size=(4, 3, 3)))
        layout = WeightLayout(3, 2, 1)
        x = FeatureInstance(model, rng.normal(size=(5, 2)), np.ones((4, 1)))
        for bad in (3, -1):
            block = rng.integers(0, 3, size=(4, 5))
            block[2, 3] = bad
            for call in (lambda y: evaluate_potential(p, y),
                         lambda y: feature_map(x, y, layout)):
                with pytest.raises(StructuralError) as scalar:
                    call(block[2])
                with pytest.raises(StructuralError) as batched:
                    call(block)
                assert str(batched.value) == str(scalar.value)
                assert "at variable 3" in str(scalar.value)

    def test_block_shapes(self, rng):
        model = chain_model(3, 2)
        p = CompiledPotentials(model, rng.normal(size=(3, 2)),
                               rng.normal(size=(2, 2, 2)))
        assert evaluate_potential(p, np.zeros((0, 3), dtype=int)).shape == (0,)
        for bad in (np.zeros((2, 4), dtype=int), np.zeros((1, 2, 3), dtype=int)):
            with pytest.raises(StructuralError):
                evaluate_potential(p, bad)


class TestLoss:
    def test_identical_labelings_zero(self):
        y = np.array([0, 1, 1, 0])
        v = np.ones(4)
        for spec in (LossSpec(ZERO_ONE), LossSpec(HAMMING),
                     LossSpec(WEIGHTED_HAMMING, VOLUME_BALANCED)):
            assert loss(spec, y, y, v) == 0.0

    def test_hamming_counts_mismatches(self):
        y = np.array([0, 1, 0, 1])
        yh = np.array([0, 0, 0, 0])
        assert loss(LossSpec(HAMMING), y, yh) == 0.5

    def test_zero_one_symmetric(self, rng):
        for _ in range(20):
            a = rng.integers(0, 3, size=5)
            b = rng.integers(0, 3, size=5)
            s = LossSpec(ZERO_ONE)
            assert loss(s, a, b) == loss(s, b, a)

    def test_volume_balanced_weights(self):
        """theta_d = V_d / (2 V_side); V_d=10 in a 50-volume foreground."""
        y = np.array([1, 1, 1, 1, 1, 0])
        v = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 7.0])
        theta = volume_weights(y, v)
        assert theta[0] == pytest.approx(10.0 / (2 * 50.0))
        assert theta[5] == pytest.approx(7.0 / (2 * 7.0))

    def test_unit_weight_table_equals_hamming(self, rng):
        """Weighted Hamming with theta = 1 is plain Hamming, all pairs."""
        table = np.ones((6, 2))
        spec_w = LossSpec(WEIGHTED_HAMMING, table)
        spec_h = LossSpec(HAMMING)
        for _ in range(50):
            a = rng.integers(0, 2, size=6)
            b = rng.integers(0, 2, size=6)
            assert loss(spec_w, a, b) == loss(spec_h, a, b)

    def test_hamming_in_unit_interval(self, rng):
        for _ in range(50):
            a = rng.integers(0, 2, size=8)
            b = rng.integers(0, 2, size=8)
            assert 0.0 <= loss(LossSpec(HAMMING), a, b) <= 1.0

    def test_degenerate_volume_instance_raises(self):
        y = np.ones(4, dtype=np.int64)
        with pytest.raises(DegenerateInstanceError):
            volume_weights(y, np.ones(4))

    def test_weight_rule_validation(self):
        with pytest.raises(StructuralError):
            LossSpec(WEIGHTED_HAMMING)
        with pytest.raises(StructuralError):
            LossSpec(HAMMING, VOLUME_BALANCED)


class TestFeatureInstance:
    def test_partial_label_bookkeeping(self, rng):
        m = chain_model(4, 2)
        x = FeatureInstance(m, rng.normal(size=(4, 2)), np.ones((3, 1)),
                            np.array([1, -1, 0, -1]))
        assert x.partially_labeled and not x.fully_labeled
        assert x.given_labels() == {0: 1, 2: 0}

    def test_rejects_bad_volume(self, rng):
        m = chain_model(3, 2)
        with pytest.raises(StructuralError):
            FeatureInstance(m, rng.normal(size=(3, 2)), np.ones((2, 1)),
                            None, np.array([1.0, 0.0, 1.0]))
