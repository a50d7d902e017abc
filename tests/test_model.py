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
    WEIGHTED_HAMMING,
    WeightLayout,
    WeightVector,
    ZERO_ONE,
    chain_model,
    check_labeling,
    compile_potentials,
    evaluate_potential,
    feature_map,
    grid_model,
    loss,
    volume_weights,
)

from conftest import zero_potentials


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

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (-1, -1),
                                            (-2, -3), (-2, 3)])
    def test_grid_refuses_a_side_below_one(self, rows, cols):
        with pytest.raises(StructuralError):
            grid_model(rows, cols)

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

    def test_fractional_labels_refused(self, rng):
        """A label that is not an integer (1.7, NaN, an infinity, a float
        past int64) is refused, not cast to the label it truncates to, by
        both kernels in both forms and by ``check_labeling``.  A block, or
        a list, raises what its first bad row or item raises alone.
        Integral floats and booleans still read as their labels."""
        model = chain_model(2, 2)
        p = CompiledPotentials(model, np.array([[0.0, 1.0], [0.0, 2.0]]),
                               np.zeros((1, 2, 2)))
        layout = WeightLayout(2, 1, 1)
        x = FeatureInstance(model, rng.normal(size=(2, 1)), np.ones((1, 1)))
        calls = (lambda y: evaluate_potential(p, y),
                 lambda y: feature_map(x, y, layout),
                 lambda y: evaluate_potential([p, p], [[0, 1], y]),
                 lambda y: feature_map([x, x], [[0, 1], y], layout),
                 lambda y: check_labeling(model, y))
        for bad in ([0.0, 1.7], [0, float("nan")], [0, float("inf")],
                    [0, -0.5], [0, 2.0 ** 63]):
            for call in calls:
                with pytest.raises(StructuralError,
                                   match="not an integer at variable 1"):
                    call(bad)
        for call in calls[:2]:
            # the first bad row decides, whichever check it fails
            with pytest.raises(StructuralError, match="out of range"):
                call(np.array([[0.0, 5.0], [0.5, 1.0]]))
            with pytest.raises(StructuralError, match="not an integer"):
                call(np.array([[0.5, 1.0], [0.0, 5.0]]))
        with pytest.raises(StructuralError, match="out of range"):
            evaluate_potential([p, p], [[0, 5], [0.5, 1]])
        assert evaluate_potential(p, [0.0, 1.0]) == 2.0
        assert evaluate_potential(p, np.array([False, True])) == 2.0
        assert (feature_map(x, [1.0, 0.0], layout).tobytes()
                == feature_map(x, [1, 0], layout).tobytes())

    def test_list_form_rows_equal_single_calls_bitwise(self, rng):
        """The list forms give, row for row, the bytes of one call per
        instance: 300 random batches of 1 to 6 instances, chains and grids
        of mixed sizes (consecutive instances often share a model, so
        runs of equal models form), full and potts layouts, 2 to 4 labels,
        blocks of 1 to 6 rows or one (D,) labeling, and tables and features
        with signed zeros among their entries."""
        def entries(shape):
            v = rng.normal(size=shape) * 10.0 ** int(rng.integers(-3, 4))
            v[rng.random(shape) < 0.2] = -0.0
            v[rng.random(shape) < 0.1] = 0.0
            return v

        for _ in range(300):
            form = ("full", "potts")[int(rng.integers(2))]
            k_max = int(rng.integers(2, 5))
            layout = WeightLayout(k_max, int(rng.integers(1, 4)),
                                  int(rng.integers(1, 3)), form)
            xs, ps, ys = [], [], []
            for i in range(int(rng.integers(1, 7))):
                if i and rng.random() < 0.5:
                    model = xs[-1].model
                elif rng.random() < 0.5:
                    model = chain_model(int(rng.integers(1, 9)),
                                        int(rng.integers(2, k_max + 1)))
                else:
                    model = grid_model(int(rng.integers(1, 4)),
                                       int(rng.integers(1, 4)),
                                       int(rng.integers(2, k_max + 1)))
                k, e = model.num_labels, model.num_edges
                xs.append(FeatureInstance(
                    model, entries((model.num_vars, layout.node_feat_dim)),
                    entries((e, layout.edge_feat_dim))))
                ps.append(CompiledPotentials(
                    model, entries((model.num_vars, k)), entries((e, k, k))))
                shape = (int(rng.integers(1, 7)), model.num_vars)
                if rng.random() < 0.15:
                    shape = model.num_vars
                ys.append(rng.integers(0, k, size=shape))
            psi = feature_map(xs, ys, layout)
            vals = evaluate_potential(ps, ys)
            singles = [np.atleast_2d(feature_map(x, y, layout))
                       for x, y in zip(xs, ys)]
            assert psi.tobytes() == np.concatenate(singles).tobytes()
            singles = [np.atleast_1d(evaluate_potential(p, y))
                       for p, y in zip(ps, ys)]
            assert vals.tobytes() == np.concatenate(singles).tobytes()

    def test_list_form_raises_for_the_first_bad_labeling(self, rng):
        """A bad labeling in a list raises the error of the first bad one
        alone, whichever run it is in; lists of unequal length are
        refused."""
        chain, grid = chain_model(5, 3), grid_model(2, 2)
        p_c = CompiledPotentials(chain, rng.normal(size=(5, 3)),
                                 rng.normal(size=(4, 3, 3)))
        p_g = CompiledPotentials(grid, rng.normal(size=(4, 2)),
                                 rng.normal(size=(4, 2, 2)))
        good_c, good_g = np.zeros((2, 5), dtype=int), np.zeros(4, dtype=int)
        bad_c = good_c.copy()
        bad_c[1, 3] = 3
        bad_g = np.array([[0, 1, 0, -1]])
        cases = (([p_c, p_g, p_c], [good_c, bad_g, bad_c], (p_g, bad_g)),
                 ([p_c, p_c, p_g], [good_c, bad_c, bad_g], (p_c, bad_c)),
                 ([p_g, p_c], [good_g, np.zeros((2, 4), dtype=int)],
                  (p_c, np.zeros((2, 4), dtype=int))))
        for ps, ys, (p_bad, y_bad) in cases:
            with pytest.raises(StructuralError) as alone:
                evaluate_potential(p_bad, y_bad)
            with pytest.raises(StructuralError) as listed:
                evaluate_potential(ps, ys)
            assert str(listed.value) == str(alone.value)
        with pytest.raises(StructuralError):
            evaluate_potential([p_c, p_c], [good_c])

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
                     LossSpec(WEIGHTED_HAMMING)):
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
            LossSpec("weighted")


class TestFeatureInstance:
    def test_partial_label_bookkeeping(self, rng):
        m = chain_model(4, 2)
        x = FeatureInstance(m, rng.normal(size=(4, 2)), np.ones((3, 1)),
                            np.array([1, -1, 0, -1]))
        assert not x.fully_labeled
        assert x.given_labels() == {0: 1, 2: 0}

    def test_rejects_bad_volume(self, rng):
        m = chain_model(3, 2)
        with pytest.raises(StructuralError):
            FeatureInstance(m, rng.normal(size=(3, 2)), np.ones((2, 1)),
                            None, np.array([1.0, 0.0, 1.0]))

    def test_rejects_labels_that_are_not_integers(self, rng):
        """A fractional or NaN label is refused, not truncated to another
        label; integral floats, and int64 labels taken as they are, pass."""
        m = chain_model(2, 2)
        nf, ef = rng.normal(size=(2, 2)), np.ones((1, 1))
        for labels, bad in (([0.5, 1.7], "0.5"), ([1, float("nan")], "nan"),
                            ([0, float("inf")], "inf")):
            with pytest.raises(StructuralError,
                               match=f"label {bad} is not an integer"):
                FeatureInstance(m, nf, ef, labels)
        x = FeatureInstance(m, nf, ef, [1.0, -1.0])
        assert x.labels.tolist() == [1, -1]
        lab = np.array([1, 0], dtype=np.int64)
        assert FeatureInstance(m, nf, ef, lab).labels is lab
