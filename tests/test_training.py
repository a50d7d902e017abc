"""SGD steps, acceleration equivalence, and the training drivers."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gumbelmap.errors import CapacityError, StructuralError
from gumbelmap.gumbel import EstimatorConfig, sample_noise
from gumbelmap.model import (
    FeatureInstance,
    HAMMING,
    LossSpec,
    PAIRWISE_FULL,
    PAIRWISE_POTTS,
    WEIGHTED_HAMMING,
    WeightLayout,
    WeightVector,
    ZERO_ONE,
    chain_model,
    compile_potentials,
    evaluate_potential,
    grid_model,
    project_supermodular,
    zero_weights,
)
from gumbelmap.synth import gen_chain_dataset, gen_grid_dataset
from gumbelmap.training import (
    TrainConfig,
    TrainCounters,
    _label_table,
    _unlabeled_table,
    predict,
    sgd_loglik_step,
    sgd_marginal_step,
    sgd_unsup_step,
    train,
    train_semisupervised,
)

from conftest import element, frozen_noise_objective, random_supermodular_grid


def _chain_data(rng, n=10, num_vars=5, num_labels=3, feat=3):
    layout = WeightLayout(num_labels, feat, 1)
    model = chain_model(num_vars, num_labels)
    out = []
    for _ in range(n):
        nf = rng.normal(size=(num_vars, feat))
        ef = np.ones((num_vars - 1, 1))
        labels = rng.integers(0, num_labels, size=num_vars)
        out.append(FeatureInstance(model, nf, ef, labels))
    return layout, out


def _cfg(layout, loss=LossSpec(HAMMING), **kw):
    defaults = dict(lam=0.1, iters=40, batch=3, loss=loss, seed=17,
                    solver="chain", layout=layout)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize("solver,layout", [
        ("grpahcut", WeightLayout(2, 2, 1, PAIRWISE_POTTS)),
        ("graphcut", WeightLayout(2, 2, 1, PAIRWISE_FULL)),
        ("graphcut", WeightLayout(3, 2, 1, PAIRWISE_POTTS))])
    def test_unsolvable_solver_layout_rejected(self, solver, layout):
        """An unknown solver, and graph cuts on any layout but the binary
        potts one its projection keeps cut-solvable, are refused when the
        config is built, before any solve."""
        with pytest.raises(StructuralError):
            _cfg(layout, solver=solver)

    @pytest.mark.parametrize("field,value", [
        ("lam", np.nan), ("lam", np.inf), ("lam", 1e-310), ("lam", 0.0),
        ("lam", -1.0), ("kappa", np.nan), ("kappa", np.inf),
        ("kappa", -1.0), ("stepsize", np.nan), ("stepsize", np.inf),
        ("stepsize", 0.0), ("stepsize", -0.5), ("inference_samples", 0)])
    def test_unusable_numbers_rejected(self, field, value):
        with pytest.raises(StructuralError):
            _cfg(WeightLayout(3, 3, 1), **{field: value})

    def test_usable_edge_values_accepted(self):
        _cfg(WeightLayout(3, 3, 1), lam=1e-300, kappa=0.0, stepsize=None,
             inference_samples=1)
        _cfg(WeightLayout(2, 2, 1, PAIRWISE_POTTS), solver="graphcut")

    @pytest.mark.parametrize("loss,kw", [
        (LossSpec(HAMMING), dict(lam=1e-300)),
        (LossSpec(ZERO_ONE), dict(lam=1e-300)),
        (LossSpec(HAMMING), dict(lam=1.0, stepsize=3.0, iters=2000))])
    def test_overflowing_iterates_refused_before_any_solve(self, rng, loss,
                                                           kw, monkeypatch):
        """A 1e-300 lambda bounds the iterates only by about 1e302, and
        a constant stepsize with |1 - gamma lambda| = 2 not at all: both
        drivers refuse before compiling any table.  The same data trains
        at lambda 0.1, and at a constant stepsize with gamma lambda < 1."""
        import gumbelmap.training as training
        layout, data = _chain_data(rng, n=3)
        unlabeled = [FeatureInstance(x.model, x.node_features,
                                     x.edge_features) for x in data]
        cfg = _cfg(layout, loss=loss, **kw)

        def no_solve(*args):
            raise AssertionError("a table was compiled")

        with monkeypatch.context() as patch:
            patch.setattr(training, "compile_potentials", no_solve)
            with pytest.raises(StructuralError, match="overflow"):
                train(data, cfg)
            if loss.kind != ZERO_ONE:
                with pytest.raises(StructuralError, match="overflow"):
                    train_semisupervised(data, unlabeled, cfg)
        train(data, _cfg(layout, loss=loss, iters=3))
        train(data, _cfg(layout, loss=loss, iters=3, lam=1.0, stepsize=0.5))

    @pytest.mark.parametrize("case", ["grid on chain", "3-label weighted",
                                      "labeled grid", "brute past guard"])
    def test_unsolvable_instances_refused_before_any_solve(self, rng, case,
                                                           monkeypatch):
        """An instance the solver cannot solve, and with the weighted loss
        an unlabeled instance of more than two labels, is refused before
        any table is compiled, naming the dataset and the instance: the
        first two used to be found only after a whole supervised phase."""
        import gumbelmap.training as training
        layout, data = _chain_data(rng, n=3, num_labels=2)
        unlabeled = [FeatureInstance(x.model, x.node_features,
                                     x.edge_features) for x in data]
        cfg = _cfg(layout, kappa=1.0)
        if case == "grid on chain":
            grid = grid_model(2, 2)
            unlabeled.append(FeatureInstance(
                grid, rng.normal(size=(4, 3)), np.ones((grid.num_edges, 1))))
            where, match = "unlabeled dataset, instance 3", "chain structure"
        elif case == "3-label weighted":
            three = chain_model(5, 3)
            unlabeled.insert(0, FeatureInstance(
                three, rng.normal(size=(5, 3)), np.ones((4, 1))))
            cfg = _cfg(WeightLayout(3, 3, 1), loss=LossSpec(WEIGHTED_HAMMING),
                       kappa=1.0)
            where, match = "unlabeled dataset, instance 0", "binary labels"
        elif case == "labeled grid":
            grid = grid_model(2, 2)
            data.append(FeatureInstance(
                grid, rng.normal(size=(4, 3)), np.ones((grid.num_edges, 1)),
                np.zeros(4, dtype=np.int64)))
            where, match = "labeled dataset, instance 3", "chain structure"
        else:
            big = chain_model(21, 2)
            data.append(FeatureInstance(
                big, rng.normal(size=(21, 3)), np.ones((20, 1)),
                np.zeros(21, dtype=np.int64)))
            cfg = _cfg(layout, kappa=1.0, solver="brute")
            where, match = "labeled dataset, instance 3", "state space"

        def no_solve(*args):
            raise AssertionError("a table was compiled")

        monkeypatch.setattr(training, "compile_potentials", no_solve)
        with pytest.raises((StructuralError, CapacityError),
                           match=f"{where}: .*{match}"):
            train_semisupervised(data, unlabeled, cfg)
        if where.startswith("labeled"):
            with pytest.raises((StructuralError, CapacityError),
                               match=f"{where}: .*{match}"):
                train(data, cfg)

    def test_iterate_bound_passes_image_sized_grids(self, rng):
        """The iterate bound refuses overflow only.  On a 150x150 grid with
        4 standard-normal features its worst-case table entry (3 B S, about
        1e16 at lambda 0.1) is past 2^52, but finite: the run is not
        refused, since whether a pin holds is read from the tables pinned
        (``cuts.pin_margins``), not from this bound."""
        from gumbelmap.training import _check_bounded
        model = grid_model(150, 150)
        x = FeatureInstance(model, rng.normal(size=(model.num_vars, 4)),
                            np.ones((model.num_edges, 1)),
                            rng.integers(0, 2, size=model.num_vars))
        cfg = _cfg(WeightLayout(2, 4, 1, PAIRWISE_POTTS), solver="graphcut")
        _check_bounded(cfg, [x], [], cfg.iters)


class TestLossTables:
    """``_check_bounded`` bounds a gradient entry by (1 + kappa) D S, which
    holds only while every entry of an element's loss weight table lies in
    [0, 1].  Volumes span twelve orders of magnitude."""

    @staticmethod
    def _grid(seed, labels=None):
        # one teacher: with teacher_seed=seed, 17 of these seeds give
        # teachers that the generator refuses as one-sided
        data, teacher = gen_grid_dataset(1, 3, 2, seed=seed, teacher_seed=3)
        x = data[0]
        vols = 10.0 ** np.random.default_rng(seed).uniform(-6, 6, size=9)
        return FeatureInstance(x.model, x.node_features, x.edge_features,
                               x.labels if labels is None else labels,
                               vols), teacher.layout

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           kind=st.sampled_from([HAMMING, WEIGHTED_HAMMING]))
    def test_label_table_entries_in_unit_interval(self, seed, kind):
        x, _ = self._grid(seed)
        table = _label_table(x, x.labels, LossSpec(kind))
        assert np.all((table >= 0.0) & (table <= 1.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.sampled_from([0.0, 1.0, 30.0]),
           given=st.sampled_from(["none", "some", "background",
                                  "foreground"]))
    def test_weighted_unlabeled_table_entries_in_unit_interval(
            self, seed, scale, given):
        """Given labels all on one side make that side's soft volume zero,
        under the 1e-6 floor; a large ``scale`` puts it near zero."""
        rng = np.random.default_rng(seed + 1)
        labels = np.full(9, -1)
        if given == "some":
            labels[rng.random(9) < 0.4] = 0
            labels[rng.random(9) < 0.3] = 1
        elif given != "none":
            labels[:] = int(given == "foreground")
        x, layout = self._grid(seed, labels)
        w = project_supermodular(
            WeightVector(scale * rng.normal(size=layout.total_size), layout))
        cfg = _cfg(layout, loss=LossSpec(WEIGHTED_HAMMING), solver="graphcut",
                   inference_samples=7)
        table = _unlabeled_table(w, x, 0, cfg)
        assert np.all((table >= 0.0) & (table <= 1.0))
        if given in ("background", "foreground"):
            assert not table[:, int(given == "background")].any()


class TestSteps:
    def test_first_step_from_zero_is_grad_over_lambda(self, rng):
        """With gamma_1 = 1/lambda the first update is the bare gradient
        scaled by 1/lambda."""
        layout, data = _chain_data(rng)
        cfg = _cfg(layout, loss=LossSpec(ZERO_ONE))
        w0 = zero_weights(layout)
        w1, _ = sgd_loglik_step(w0, data[:2], 1, cfg)
        # reconstruct: w1 = 0 + (1/lam)(grad - lam*0) = grad / lam
        from gumbelmap.gumbel import _map_labels
        from gumbelmap.model import compile_potentials, feature_map
        from gumbelmap.training import _noise_for
        gsum = np.zeros(layout.total_size)
        for t, x in enumerate(data[:2]):
            p = compile_potentials(w0, x)
            z = _noise_for(x.model, cfg.seed, 1, 1, t + 1)
            y_star = _map_labels(p.with_unary(p.unary + z), cfg.solver)
            gsum += (feature_map(x, x.labels, layout)
                     - feature_map(x, y_star, layout))
        assert np.allclose(w1.values, gsum / 2 / cfg.lam, atol=1e-12)

    def test_pure_shrinkage_when_map_equals_truth(self, rng):
        """If every perturbed maximizer hits the labels, the update is
        (1 - gamma*lam) w."""
        layout, data = _chain_data(rng, n=1, num_labels=2)
        x = data[0]
        # overwhelming unary signal toward the all-zeros labeling
        strong = FeatureInstance(x.model, np.full((5, 3), 1000.0),
                                 x.edge_features, np.zeros(5, dtype=np.int64))
        wv = np.zeros(layout.total_size)
        wv[: layout.unary_size].reshape(2, 3)[0, :] = 1.0
        w = WeightVector(wv, layout)
        cfg = _cfg(layout, loss=LossSpec(ZERO_ONE))
        h = 5
        w2, _ = sgd_loglik_step(w, [strong], h, cfg)
        gamma = 1.0 / (cfg.lam * h)
        assert np.allclose(w2.values, (1 - gamma * cfg.lam) * w.values,
                           atol=1e-9)

    def test_marginal_step_matches_bruteforce_gradient(self, rng):
        """The step's per-element gradient equals the brute-force perturbed
        argmax differences."""
        layout, data = _chain_data(rng, n=1, num_vars=3, num_labels=2, feat=2)
        x = data[0]
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        cfg = _cfg(layout, batch=1, solver="brute")
        h = 3
        w2, _ = sgd_marginal_step(w, [x], h, cfg)
        # reference: brute-force perturbed argmaxes under the same noise
        from gumbelmap.exact import all_state_values
        from gumbelmap.model import compile_potentials, feature_map
        from gumbelmap.training import _noise_for
        p = compile_potentials(w, x)
        z = _noise_for(x.model, cfg.seed, 1, h, 1)
        states, vals = all_state_values(p)
        pert = vals + np.array([z[range(3), s].sum() for s in states])
        y_a = states[int(np.argmax(pert))]
        grad = np.zeros(layout.total_size)
        for d in range(3):
            k = int(x.labels[d])
            if y_a[d] == k:
                continue
            mask = states[:, d] == k
            cond = vals[mask] + np.array(
                [sum(z[s2, states[mask][i, s2]]
                     for s2 in range(3) if s2 != d)
                 for i in range(mask.sum())])
            y_b = states[mask][int(np.argmax(cond))]
            grad += feature_map(x, y_b, layout) - feature_map(x, y_a, layout)
        gamma = 1.0 / (cfg.lam * h)
        expect = WeightVector(w.values + gamma * (grad - cfg.lam * w.values),
                              layout)
        assert np.allclose(w2.values, expect.values, atol=1e-10)

    def test_steps_require_full_labels(self, rng):
        layout, data = _chain_data(rng, n=1)
        x = data[0]
        part = FeatureInstance(x.model, x.node_features, x.edge_features,
                               np.array([0, -1, 1, 0, 1]))
        cfg = _cfg(layout)
        w = zero_weights(layout)
        with pytest.raises(StructuralError):
            sgd_marginal_step(w, [part], 1, cfg)
        with pytest.raises(StructuralError):
            sgd_loglik_step(w, [part], 1, cfg)


class TestUnsupStep:
    def test_one_hot_q_equals_marginal_step(self, rng):
        """Degenerate (one-hot) marginal tables reduce the unsupervised
        step to the supervised marginal step under the same noise."""
        layout, data = _chain_data(rng, n=1, num_vars=4, num_labels=2, feat=2)
        x = data[0]
        unlabeled = FeatureInstance(x.model, x.node_features, x.edge_features)
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        cfg = _cfg(layout, batch=1)
        q = np.zeros((4, 2))
        q[np.arange(4), x.labels] = 1.0
        from gumbelmap.training import PHASE_SUPERVISED
        w_m, _ = sgd_marginal_step(w, [x], 2, cfg, phase=PHASE_SUPERVISED)
        w_u, _ = sgd_unsup_step(w, [], [(unlabeled, q)], 2, cfg,
                                phase=PHASE_SUPERVISED)
        assert np.allclose(w_m.values, w_u.values, atol=1e-12)

    def test_no_unlabeled_equals_marginal_step_bitwise(self, rng):
        """The mixed step over an empty unlabeled batch is the marginal
        step: same weights and same objective estimate, bit for bit (both
        regularise the estimate with the pre-update w)."""
        from gumbelmap.training import PHASE_MIXED
        layout, data = _chain_data(rng, n=3, num_vars=4, num_labels=2, feat=2)
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        cfg = _cfg(layout, batch=3)
        w_m, est_m = sgd_marginal_step(w, data, 4, cfg, phase=PHASE_MIXED)
        w_u, est_u = sgd_unsup_step(w, data, [], 4, cfg, phase=PHASE_MIXED)
        assert np.array_equal(w_m.values, w_u.values)
        assert est_m == est_u

    def test_binary_model_solve_count(self, rng):
        """K = 2: exactly D clamped solves per element with acceleration."""
        layout = WeightLayout(2, 2, 1, PAIRWISE_POTTS)
        model = grid_model(3, 3)
        x = FeatureInstance(model, rng.normal(size=(9, 2)),
                            np.ones((model.num_edges, 1)))
        q = np.full((9, 2), 0.5)
        w = zero_weights(layout)
        cfg = _cfg(layout, batch=1, solver="graphcut")
        counters = TrainCounters()
        sgd_unsup_step(w, [], [(x, q)], 1, cfg, counters)
        assert counters.clamp_solves == 9
        assert counters.clamp_skipped == 9
        assert counters.map_solves == 1

    def test_uniform_q_zero_potential_gradient_centered(self, rng):
        """On a zero-potential model with uniform q the expected raw
        gradient is zero by symmetry; the Monte-Carlo mean over many noise
        draws stays within 3 stderr per coordinate."""
        from gumbelmap.model import compile_potentials
        layout = WeightLayout(2, 2, 1, PAIRWISE_POTTS)
        model = chain_model(4, 2)
        x = FeatureInstance(model, rng.normal(size=(4, 2)), np.ones((3, 1)))
        q = np.full((4, 2), 0.5)
        w = zero_weights(layout)
        p = compile_potentials(w, x)
        grads = []
        for h in range(1000):
            z = sample_noise(model, 4242, context=(h, 0))
            g, _ = element(x, q, {}, p, z, "chain", False, True,
                           layout, TrainCounters())
            grads.append(g)
        grads = np.asarray(grads)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
        assert np.all(np.abs(mean) <= 3 * se + 1e-12)


class TestAcceleration:
    def test_on_off_bitwise_identical(self, rng):
        layout, data = _chain_data(rng, n=8)
        r_on = train(data, _cfg(layout, acceleration=True))
        r_off = train(data, _cfg(layout, acceleration=False))
        assert np.array_equal(r_on.weights.values, r_off.weights.values)
        assert np.array_equal(r_on.averaged.values, r_off.averaged.values)
        assert r_on.counters.clamp_solves < r_off.counters.clamp_solves
        assert r_on.counters.clamp_skipped > 0

    def test_skip_count_is_match_count(self, rng):
        """Skipped clamps per iteration are exactly the positions where the
        perturbed maximizer agrees with the labels."""
        layout, data = _chain_data(rng, n=1, num_vars=4)
        cfg = _cfg(layout, batch=1, iters=1)
        counters = TrainCounters()
        w = zero_weights(layout)
        sgd_marginal_step(w, [data[0]], 1, cfg, counters)
        assert counters.clamp_solves + counters.clamp_skipped == 4

    def test_dynamic_cuts_on_off_same_trajectory(self, rng):
        data, teacher = gen_grid_dataset(4, 4, 2, seed=3, teacher_seed=3)
        cfg_on = TrainConfig(lam=0.1, iters=60, batch=2, loss=LossSpec(HAMMING),
                             seed=5, solver="graphcut", layout=teacher.layout,
                             dynamic_cuts=True)
        cfg_off = TrainConfig(lam=0.1, iters=60, batch=2, loss=LossSpec(HAMMING),
                              seed=5, solver="graphcut", layout=teacher.layout,
                              dynamic_cuts=False)
        r_on = train(data, cfg_on)
        r_off = train(data, cfg_off)
        assert np.array_equal(r_on.weights.values, r_off.weights.values)

    def test_clamps_agree_bitwise_across_solvers(self):
        """On random binary supermodular chains every clamp (d, k) gives the
        same labels and the same value bit for bit on the chain, brute-force
        and graph-cut solvers, the last with dynamic cuts off and on: every
        solver pins p + z and subtracts z_d(k).  Each draw asks for all 8
        clamps in one call, so every variable is pinned twice (two rounds
        of pins on the chain); each row must equal the row of the clamp
        asked for alone, and each value the clamped labeling's value on
        p + z less z_d(k).  Dynamic cuts answer on one retained cut state
        that first solved the unconditional MAP, as in training."""
        from gumbelmap.cuts import build_cut_problem
        from gumbelmap.gumbel import (_cut_clamped_map,
                                      perturbed_conditional_map)
        from gumbelmap.model import CompiledPotentials
        rng = np.random.default_rng(2400)
        variants = (("chain", False), ("brute", False), ("graphcut", False),
                    ("graphcut", True))
        model = chain_model(4, 2)
        pairs = [(d, k) for d in range(4) for k in range(2)]
        agree = total = 0
        for m in range(100):
            grid = random_supermodular_grid(rng, rows=1, cols=4)
            p = CompiledPotentials(model, grid.unary, grid.pairwise)
            for t in range(3):
                z = sample_noise(model, m, context=(t, 0))
                perturbed = p.with_unary(p.unary + z)
                state = build_cut_problem(perturbed)
                state.solve()

                def clamped(solver, dynamic, asked):
                    if dynamic:
                        block = _cut_clamped_map(state, perturbed, asked)
                    else:
                        block = perturbed_conditional_map(perturbed, asked,
                                                          solver)
                    z_b = np.array([z[d, k] for d, k in asked])
                    return block, evaluate_potential(perturbed, block) - z_b

                out = [clamped(s, dc, pairs) for s, dc in variants]
                block0, vals0 = out[0]
                for i, (d, k) in enumerate(pairs):
                    total += 1
                    agree += all(
                        np.array_equal(block[i], block0[i])
                        and vals[i] == vals0[i]
                        and vals[i] == (evaluate_potential(perturbed, block[i])
                                        - z[d, k])
                        and np.array_equal(clamped(s, dc, [(d, k)])[0][0],
                                           block[i])
                        for (s, dc), (block, vals) in zip(variants, out))
        assert (agree, total) == (2400, 2400)

    @pytest.mark.parametrize("solver, dynamic", [
        ("chain", False), ("brute", False), ("graphcut", True)])
    def test_element_evaluates_and_maps_once(self, monkeypatch, rng, solver,
                                             dynamic):
        """A batch with clamps evaluates every element's y_a stacked over
        its clamp block in one ``evaluate_potential`` call on the
        elements' p + z, and maps their features in one ``feature_map``
        call; a batch whose clamps are all skipped makes neither call.
        Calls are counted through every module the batch runs in."""
        from gumbelmap import gumbel, model as model_mod, training
        from gumbelmap.gumbel import _map_labels
        from gumbelmap.training import _batch_sums, _solve_element
        layout = WeightLayout(2, 2, 1, PAIRWISE_POTTS)
        model = chain_model(4, 2)
        x = FeatureInstance(model, rng.normal(size=(4, 2)), np.ones((3, 1)))
        w = project_supermodular(
            WeightVector(rng.normal(size=layout.total_size), layout))
        p = compile_potentials(w, x)
        z = sample_noise(model, 31)
        y_a = _map_labels(p.with_unary(p.unary + z), "brute")
        all_skipped = np.zeros((4, 2))
        all_skipped[np.arange(4), y_a] = 1.0
        calls = {"evaluate": 0, "feature_map": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (training, gumbel):
            monkeypatch.setattr(module, "evaluate_potential", counted(
                "evaluate", model_mod.evaluate_potential))
        monkeypatch.setattr(training, "feature_map", counted(
            "feature_map", model_mod.feature_map))
        for tables, clamps, expected in (
                ([np.ones((4, 2))], 4, 1), ([all_skipped], 0, 0),
                ([np.ones((4, 2)), all_skipped, np.ones((4, 2))], 8, 1)):
            calls.update(evaluate=0, feature_map=0)
            counters = TrainCounters()
            solved = [_solve_element(x, table, {}, p, z, solver, dynamic,
                                     True, counters) for table in tables]
            _batch_sums(solved, layout)
            assert (counters.clamp_solves, counters.clamp_skipped) == (
                clamps, 4 * len(tables))
            assert calls == {"evaluate": expected, "feature_map": expected}

    def test_cut_clamps_leave_the_state_as_found(self):
        """After a block of clamps on a retained cut state, the state holds
        the unpinned perturbed table again and its next solve returns the
        unconditional maximizer y_a."""
        from gumbelmap.cuts import build_cut_problem
        from gumbelmap.gumbel import _cut_clamped_map
        from gumbelmap.model import compile_potentials
        data, teacher = gen_grid_dataset(2, 4, 2, seed=3, teacher_seed=3)
        for i, x in enumerate(data):
            p = compile_potentials(teacher, x)
            z = sample_noise(x.model, 7, context=(i, 0))
            perturbed = p.with_unary(p.unary + z)
            state = build_cut_problem(perturbed)
            y_a = state.solve()[0]
            pairs = [(d, 1 - int(y_a[d])) for d in range(x.model.num_vars)]
            _cut_clamped_map(state, perturbed, pairs)
            assert state.unary.tolist() == perturbed.unary.ravel().tolist()
            assert np.array_equal(state.solve()[0], y_a)

    def test_cut_clamps_pin_only_what_they_solve(self, monkeypatch):
        """On a retained cut state, the pinned entries come from
        ``clamp_variables``, one call per round of the pairs left to solve
        once the certificates are taken: none, and no pin margin, when
        ``flips_alone`` certifies every pair.  The rows equal those of
        ``perturbed_conditional_map`` either way."""
        from gumbelmap import cuts, gumbel
        from gumbelmap.cuts import build_cut_problem
        from gumbelmap.gumbel import (_cut_clamped_map,
                                      perturbed_conditional_map)
        from gumbelmap.model import compile_potentials
        calls = {"clamp": 0, "margins": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gumbel, "clamp_variables", counted(
            "clamp", cuts.clamp_variables))
        monkeypatch.setattr(cuts, "pin_margins", counted(
            "margins", cuts.pin_margins))
        data, teacher = gen_grid_dataset(3, 6, 3, seed=17, teacher_seed=1009)
        seen = set()
        for i, x in enumerate(data):
            p = compile_potentials(teacher, x)
            perturbed = p.with_unary(
                p.unary + sample_noise(x.model, 7, context=(i, 0)))
            state = build_cut_problem(perturbed)
            y_a = state.solve()[0]
            n = x.model.num_vars
            certified = [(d, 1 - int(y_a[d])) for d in range(n)
                         if state.flips_alone(d)]
            every = [(d, k) for d in range(n) for k in range(2)]
            # the pairs of every variable not certified are solved, in two
            # rounds: each such variable is pinned to both labels
            rounds = 1 + (len(certified) < n)
            for pairs, want in ((certified, 0), (every, rounds)):
                calls.update(clamp=0, margins=0)
                block = _cut_clamped_map(state, perturbed, pairs)
                assert calls == {"clamp": want, "margins": want}
                assert np.array_equal(block, perturbed_conditional_map(
                    perturbed, pairs, "graphcut"))
                seen.add((want, bool(pairs)))
        assert seen >= {(0, True), (2, True)}


class TestProjection:
    def test_clamps_pairwise_block(self, rng):
        layout = WeightLayout(2, 2, 1, PAIRWISE_POTTS)
        w = WeightVector(rng.normal(size=layout.total_size) + 0.3, layout)
        p1 = project_supermodular(w)
        assert np.all(p1.values[p1.pairwise_block] <= 0)
        assert np.array_equal(p1.values[p1.unary_block],
                              w.values[w.unary_block])
        p2 = project_supermodular(p1)
        assert np.array_equal(p1.values, p2.values)

    def test_projected_weights_pass_cut_precondition(self, rng):
        from gumbelmap.cuts import build_cut_problem
        from gumbelmap.model import compile_potentials
        layout = WeightLayout(2, 3, 1, PAIRWISE_POTTS)
        model = grid_model(3, 3)
        x = FeatureInstance(model, rng.normal(size=(9, 3)),
                            np.abs(rng.normal(size=(model.num_edges, 1))))
        w = project_supermodular(
            WeightVector(rng.normal(size=layout.total_size), layout))
        build_cut_problem(compile_potentials(w, x))  # must not raise


class TestFrozenNoise:
    def test_gradient_matches_finite_differences(self, rng):
        """At stable points the analytic gradient of the frozen-noise
        objective matches central differences to 1e-5 relative."""
        layout, data = _chain_data(rng, n=1, num_vars=4, num_labels=2, feat=2)
        x = data[0]
        z = sample_noise(x.model, 77)
        spec = LossSpec(HAMMING)
        checked = 0
        attempt = 0
        while checked < 4 and attempt < 30:
            attempt += 1
            w = WeightVector(rng.normal(size=layout.total_size), layout)
            obj0, grad = frozen_noise_objective(w, x, x.labels, z, spec, "brute")
            eps = 1e-6
            ok = True
            for i in range(layout.total_size):
                wp, wm = w.values.copy(), w.values.copy()
                wp[i] += eps
                wm[i] -= eps
                op, _ = frozen_noise_objective(
                    WeightVector(wp, layout), x, x.labels, z, spec, "brute")
                om, _ = frozen_noise_objective(
                    WeightVector(wm, layout), x, x.labels, z, spec, "brute")
                fd = (op - om) / (2 * eps)
                if abs(fd - grad[i]) > 1e-5 * max(1.0, abs(grad[i])):
                    ok = False  # argmax switch inside the stencil: unstable
                    break
            if ok:
                checked += 1
        assert checked == 4


class TestDrivers:
    def test_train_deterministic(self, rng):
        layout, data = _chain_data(rng)
        r1 = train(data, _cfg(layout))
        r2 = train(data, _cfg(layout))
        assert np.array_equal(r1.weights.values, r2.weights.values)
        assert np.array_equal(r1.objective_estimates, r2.objective_estimates)

    def test_objective_trend_on_separable_data(self):
        """The running average of the objective estimate is non-decreasing
        over the last 80% of iterations (mean curve over 10 seeds)."""
        curves = []
        for s in range(10):
            data, teacher = gen_chain_dataset(20, 5, 2, 3, seed=100 + s,
                                              teacher_seed=9, teacher_scale=1.0)
            layout = teacher.layout
            cfg = TrainConfig(lam=0.1, iters=400, batch=2,
                              loss=LossSpec(ZERO_ONE), seed=s, solver="chain",
                              layout=layout)
            curves.append(train(data, cfg).objective_estimates)
        mean_curve = np.mean(curves, axis=0)
        running = np.cumsum(mean_curve) / np.arange(1, len(mean_curve) + 1)
        tail = running[len(running) // 5:]
        windows = tail[: len(tail) // 100 * 100].reshape(-1, 100).mean(axis=1)
        assert np.all(np.diff(windows) >= -1e-9)

    def test_semisupervised_kappa_zero_equals_supervised_continuation(self, rng):
        data, teacher = gen_grid_dataset(8, 3, 2, seed=11, teacher_seed=11)
        d1 = data[:4]
        d2 = [FeatureInstance(x.model, x.node_features, x.edge_features)
              for x in data[4:]]
        cfg0 = TrainConfig(lam=0.1, iters=30, batch=2, loss=LossSpec(HAMMING),
                           seed=7, solver="graphcut", layout=teacher.layout,
                           kappa=0.0, inference_samples=20)
        r_kappa0 = train_semisupervised(d1, d2, cfg0)
        r_empty = train_semisupervised(d1, [], cfg0)
        assert np.array_equal(r_kappa0.weights.values, r_empty.weights.values)

    def test_semisupervised_with_partial_labels(self, rng):
        data, teacher = gen_grid_dataset(8, 3, 2, seed=13, teacher_seed=13)
        d1 = data[:4]
        d2 = []
        for x in data[4:]:
            labels = x.labels.copy()
            labels[2:] = -1  # keep two given labels per instance
            d2.append(FeatureInstance(x.model, x.node_features,
                                      x.edge_features, labels))
        cfg = TrainConfig(lam=0.1, iters=30, batch=2, loss=LossSpec(HAMMING),
                          seed=7, solver="graphcut", layout=teacher.layout,
                          inference_samples=20)
        report = train_semisupervised(d1, d2, cfg)
        assert np.all(np.isfinite(report.weights.values))
        assert report.counters.map_solves > 0

    def test_semisupervised_golden_trajectory(self):
        """Partial labels, volume-weighted Hamming, graph cuts, kappa = 1:
        the averaged weights and the solve counters are pinned to values
        recorded before the three phases shared one kernel and one loop."""
        data, teacher = gen_grid_dataset(10, 3, 2, seed=21, teacher_seed=21)
        vrng = np.random.default_rng(5)
        data = [FeatureInstance(x.model, x.node_features, x.edge_features,
                                x.labels, vrng.uniform(0.5, 2.0, size=9))
                for x in data]
        d2 = []
        for i, x in enumerate(data[4:]):
            labels = x.labels.copy()
            labels[(i % 3) + 1:] = -1  # one to three given labels
            if i == 5:
                labels[:] = -1  # and one fully unlabeled instance
            d2.append(FeatureInstance(x.model, x.node_features,
                                      x.edge_features, labels, x.node_volumes))
        cfg = TrainConfig(lam=0.1, iters=20, batch=2,
                          loss=LossSpec(WEIGHTED_HAMMING),
                          seed=3, solver="graphcut", layout=teacher.layout,
                          kappa=1.0, inference_samples=15)
        report = train_semisupervised(data[:4], d2, cfg)
        expect = [float.fromhex(v) for v in (
            "0x1.4c1c1e46503bep-4", "-0x1.267916e028a12p-3",
            "-0x1.4c1c1e46503c6p-4", "0x1.267916e028a02p-3",
            "-0x1.b665f539329fdp-3")]
        assert report.averaged.values.tolist() == expect
        assert dataclasses.asdict(report.counters) == {
            "map_solves": 120, "clamp_solves": 649, "clamp_skipped": 687}

    def test_chain_training_golden(self):
        """Supervised chains in the chain-hamming shape (8 variables, 3
        labels, 4 features, Hamming loss, batch 5, lambda 0.05), 100
        iterations on the chain solver: the averaged weights, every
        objective estimate and the solve counters are pinned bit for bit
        to values recorded with unprojected chain pairwise weights."""
        data, teacher = gen_chain_dataset(200, 8, 3, 4, seed=1, teacher_seed=7)
        cfg = TrainConfig(lam=0.05, iters=100, batch=5,
                          loss=LossSpec(HAMMING), seed=1, solver="chain",
                          layout=teacher.layout)
        report = train(data, cfg)
        weights = hashlib.sha256(report.averaged.values.tobytes()).hexdigest()
        assert weights == ("bff03476d16758f6ffa8c9c4f32e99fc"
                           "fda48370a751d6a251f086c06bf59c30")
        objectives = [float(v).hex() for v in report.objective_estimates]
        assert len(objectives) == 100
        assert objectives[-1] == "-0x1.9927c53ffe762p+2"
        digest = hashlib.sha256("\n".join(objectives).encode()).hexdigest()
        assert digest == ("2f7b3701cb4064a274f03adbb956fdd5"
                          "26482d144ffbc508cf933240a3537504")
        assert dataclasses.asdict(report.counters) == {
            "map_solves": 500, "clamp_solves": 1404, "clamp_skipped": 2596}

    def test_chain_pairwise_weights_are_not_projected(self):
        """The chain solver is exact for any transition weights, so only
        graph-cut training projects: chain Hamming training in the
        chain-hamming shape learns positive pairwise weights."""
        data, teacher = gen_chain_dataset(200, 8, 3, 4, seed=1, teacher_seed=7)
        cfg = TrainConfig(lam=0.05, iters=100, batch=5,
                          loss=LossSpec(HAMMING), seed=1, solver="chain",
                          layout=teacher.layout)
        w = train(data, cfg).averaged
        assert (w.values[w.pairwise_block] > 0).any()

    def test_empty_labeled_set_rejected(self, rng):
        layout, data = _chain_data(rng, n=2)
        with pytest.raises(StructuralError):
            train_semisupervised([], data, _cfg(layout))

    def test_semisupervised_zero_one_rejected(self, rng):
        """Zero-one has no per-variable form to mix with unlabeled data: the
        driver refuses it before any solve."""
        layout, data = _chain_data(rng, n=4)
        unlabeled = [FeatureInstance(x.model, x.node_features, x.edge_features)
                     for x in data[2:]]
        with pytest.raises(StructuralError, match="zero-one"):
            train_semisupervised(data[:2], unlabeled,
                                 _cfg(layout, loss=LossSpec(ZERO_ONE)))


class TestPredict:
    def test_modes_agree_on_separable(self, rng):
        """MAP and marginal predictions match the per-variable argmax on a
        separable model away from sampling-tie margins."""
        layout, data = _chain_data(rng, n=1, num_vars=5)
        x = data[0]
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        w.values[w.pairwise_block] = 0.0
        est = EstimatorConfig(4000, 17, "chain", stream_context=1)
        from scipy.special import softmax
        p = compile_potentials(w, x)
        y_map = predict(p, "map", est)
        y_marg = predict(p, "marginal", est)
        se = np.sqrt(0.25 / 4000)
        for d in range(5):
            probs = softmax(p.unary[d, :3])
            top = np.sort(probs)[::-1]
            if top[0] - top[1] > 6 * se:  # clear margin: both must agree
                assert y_map[d] == y_marg[d] == int(np.argmax(probs))

    def test_marginal_single_sample_is_one_perturbed_map(self, rng):
        layout, data = _chain_data(rng, n=1)
        x = data[0]
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        y = predict(compile_potentials(w, x), "marginal",
                    EstimatorConfig(1, 17, "chain", stream_context=1))
        assert y.shape == (5,)

    def test_unknown_mode(self, rng):
        layout, data = _chain_data(rng, n=1)
        w = zero_weights(layout)
        with pytest.raises(StructuralError):
            predict(compile_potentials(w, data[0]), "nonsense",
                    EstimatorConfig(100, 17, "chain"))
