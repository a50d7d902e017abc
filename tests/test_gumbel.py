"""Gumbel noise and the perturb-and-MAP estimators."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from gumbelmap import gumbel
from gumbelmap.errors import StructuralError
from gumbelmap.exact import all_state_values, brute_force
from gumbelmap.gumbel import (
    EULER_GAMMA,
    EstimatorConfig,
    conditional_counting_marginals,
    counting_marginals,
    estimate_A,
    gumbel_from_uniform,
    perturbed_conditional_map,
    perturbed_map,
    sample_noise,
)
from gumbelmap.model import (
    CompiledPotentials,
    chain_model,
    compile_potentials,
    evaluate_potential,
    grid_model,
)
from gumbelmap.synth import gen_chain_dataset, gen_grid_dataset

from conftest import (brute_force_clamped, random_chain_potentials,
                      random_supermodular_grid, zero_potentials)


class TestNoise:
    def test_inverse_cdf_at_known_point(self):
        # u = e^-1 maps to -c under the zero-mean convention
        assert gumbel_from_uniform(np.exp(-1.0)) == pytest.approx(
            -EULER_GAMMA, abs=1e-12)

    def test_retained_draws_equal_fresh_streams(self):
        """``sample_noise`` and training's batch draws re-key one retained
        generator; each draw equals the one a fresh ``stream`` of the same
        (seed, words) gives, bit for bit, whatever was drawn before: 3,000
        contexts, chains and grids, seeds from -2^126 to 2^126 (past 2^64
        and negative), the noise table through ``gumbel_from_uniform`` of
        the clamped uniforms, and the batch indices."""
        from gumbelmap.gumbel import (TAG_BATCH, TAG_NOISE, _U_HI, _U_LO,
                                      stream)
        from gumbelmap.training import TrainConfig, _draw
        from gumbelmap.model import LossSpec, WeightLayout
        rng = np.random.default_rng(2701)
        models = [chain_model(8, 3), chain_model(3, 2), grid_model(6, 6),
                  grid_model(2, 3, 4)]
        layout = WeightLayout(2, 1, 1)
        data = list(range(200))
        for _ in range(3000):
            seed = int(rng.integers(-2 ** 62, 2 ** 62)) * (
                1 << int(rng.integers(0, 65)))
            w1, w2 = (int(v) for v in rng.integers(0, 2 ** 62, size=2))
            model = models[int(rng.integers(len(models)))]
            fresh = stream(seed, w1, w2, TAG_NOISE)
            u = np.clip(fresh.random((model.num_vars, model.num_labels)),
                        _U_LO, _U_HI)
            z = sample_noise(model, seed, context=(w1, w2))
            assert z.tobytes() == gumbel_from_uniform(u).tobytes()
            cfg = TrainConfig(lam=0.1, iters=1, batch=int(rng.integers(1, 9)),
                              loss=LossSpec("hamming"), seed=seed,
                              solver="chain", layout=layout)
            phase, h, group = int(rng.integers(1, 4)), w1 >> 14, w2 & 1
            want = stream(seed, group, (phase << 48) | h, TAG_BATCH).integers(
                0, len(data), size=cfg.batch)
            assert _draw(data, cfg, phase, h, group) == want.tolist()

    @pytest.mark.parametrize("words", [
        (1 << 64, 0), (0, 1 << 64), (-(1 << 63) - 1, 0), (0, -(1 << 70)),
        (1 << 100, 1 << 100)])
    def test_retained_draws_refuse_what_stream_refuses(self, words):
        """A context word outside [-2^63, 2^64) is refused, as a fresh
        ``stream`` refuses it, not reduced to another context's noise.
        Inside that range each word is taken mod 2^64, exactly (a word
        past 2^63 is not rounded through a float), and the retained
        generator draws what ``stream`` draws."""
        from gumbelmap.gumbel import TAG_NOISE, _U_HI, _U_LO, stream
        from gumbelmap.training import TrainConfig, _draw
        from gumbelmap.model import LossSpec, WeightLayout
        model = chain_model(4, 3)
        with pytest.raises(OverflowError):
            stream(7, words[0], words[1], TAG_NOISE)
        with pytest.raises(OverflowError):
            sample_noise(model, 7, context=words)
        cfg = TrainConfig(lam=0.1, iters=1, batch=3, loss=LossSpec("hamming"),
                          seed=7, solver="chain", layout=WeightLayout(2, 1, 1))
        with pytest.raises(OverflowError):
            # phase 0: the second counter word is h
            _draw(list(range(5)), cfg, 0, words[1], words[0])
        for edge in ((1 << 64) - 1, (1 << 63) + 12345, -(1 << 63), -1):
            fresh = stream(7, edge, 0, TAG_NOISE)
            counter = fresh.bit_generator.state["state"]["counter"]
            assert [int(c) for c in counter] == [
                0, edge % (1 << 64), 0, TAG_NOISE]
            want = np.clip(fresh.random((4, 3)), _U_LO, _U_HI)
            got = sample_noise(model, 7, context=(edge, 0))
            assert got.tobytes() == gumbel_from_uniform(want).tobytes()

    def test_negative_stream_context_refused(self):
        """A negative ``stream_context`` is refused when the config is
        made: taken mod 2^64, -1 would name the stream of the word
        2^64 - 1, which another context can also reach."""
        from gumbelmap.gumbel import stream
        alias = stream(1, -1).bit_generator.state["state"]["counter"]
        assert int(alias[1]) == (1 << 64) - 1
        for context in (-1, -(1 << 63)):
            with pytest.raises(StructuralError, match="stream_context"):
                EstimatorConfig(10, 1, "chain", stream_context=context)
        assert EstimatorConfig(10, 1, "chain",
                               stream_context=0).stream_context == 0

    def test_zero_mean_and_variance(self):
        draws = np.concatenate([
            sample_noise(chain_model(50, 10), s).ravel()
            for s in range(2000)])
        n = draws.size
        assert abs(draws.mean()) <= 3 * (np.pi / np.sqrt(6)) / np.sqrt(n)
        assert abs(draws.var() - np.pi ** 2 / 6) <= 0.02 * np.pi ** 2 / 6

    def test_deterministic_given_seed(self):
        m = chain_model(4, 3)
        a = sample_noise(m, 42, context=(3, 7))
        b = sample_noise(m, 42, context=(3, 7))
        c = sample_noise(m, 42, context=(3, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPerturbedMap:
    def test_zero_noise_is_plain_map(self, rng):
        p = random_chain_potentials(rng, num_vars=6, num_labels=3)
        zero = np.zeros_like(sample_noise(p.model, 1))
        y, val = perturbed_map(p, zero, "chain")
        assert val == pytest.approx(brute_force(p).map_value, abs=1e-9)

    def test_zero_potentials_argmax_of_noise(self, rng):
        m = chain_model(5, 3)
        p = zero_potentials(m)
        z = sample_noise(m, 3)
        y, val = perturbed_map(p, z, "chain")
        assert np.array_equal(y, np.argmax(z, axis=1))

    def test_solvers_agree(self, rng):
        for _ in range(10):
            p = random_supermodular_grid(rng, rows=2, cols=3)
            z = sample_noise(p.model, int(rng.integers(1 << 30)))
            vals = [perturbed_map(p, z, s)[1] for s in ("graphcut", "brute")]
            assert vals[0] == pytest.approx(vals[1], abs=1e-9)

    def test_value_includes_noise(self, rng):
        p = random_chain_potentials(rng, num_vars=4, num_labels=2)
        z = sample_noise(p.model, 5)
        y, val = perturbed_map(p, z, "chain")
        expected = evaluate_potential(p, y) + sum(
            z[d, y[d]] for d in range(4))
        assert val == pytest.approx(expected, abs=1e-9)

    def test_incompatible_solver(self, rng):
        with pytest.raises(StructuralError):
            perturbed_map(zero_potentials(grid_model(2, 2)),
                          sample_noise(grid_model(2, 2), 0), "chain")
        with pytest.raises(StructuralError):
            perturbed_map(zero_potentials(chain_model(2, 3)),
                          sample_noise(chain_model(2, 3), 0), "graphcut")


class TestEstimateA:
    def test_separable_closed_form_within_3se(self, rng):
        m = chain_model(5, 3)
        u = rng.normal(size=(5, 3))
        p = CompiledPotentials(m, u, np.zeros((4, 3, 3)))
        truth = sum(logsumexp(u[d]) for d in range(5))
        mean, se = estimate_A(p, EstimatorConfig(2000, seed=7, solver="chain"))
        assert abs(mean - truth) <= 3 * se

    def test_single_binary_tightness(self):
        m = chain_model(1, 2)
        p = CompiledPotentials(m, np.array([[1.0, 0.0]]), np.zeros((0, 2, 2)))
        mean, se = estimate_A(p, EstimatorConfig(2000, seed=1, solver="brute"))
        assert abs(mean - np.log(1 + np.e)) <= 3 * se

    def test_zero_potentials(self):
        p = zero_potentials(chain_model(4, 3))
        mean, se = estimate_A(p, EstimatorConfig(2000, seed=2, solver="chain"))
        assert abs(mean - 4 * np.log(3)) <= 3 * se

    def test_upper_bounds_coupled_partition(self, rng):
        p = random_chain_potentials(rng, num_vars=8, num_labels=2)
        truth = brute_force(p).log_partition
        mean, se = estimate_A(p, EstimatorConfig(2000, seed=3, solver="chain"))
        assert mean >= truth - 3 * se

    def test_deterministic_and_solver_invariant(self, rng):
        p = random_supermodular_grid(rng, rows=2, cols=3)
        cfg = EstimatorConfig(200, seed=11, solver="brute")
        a1 = estimate_A(p, cfg)
        a2 = estimate_A(p, cfg)
        assert a1 == a2
        a3 = estimate_A(p, EstimatorConfig(200, seed=11, solver="graphcut"))
        assert a1[0] == pytest.approx(a3[0], abs=1e-9)

    def test_single_sample_stderr_zero(self, rng):
        p = random_chain_potentials(rng, num_vars=3, num_labels=2)
        _, se = estimate_A(p, EstimatorConfig(1, seed=0, solver="chain"))
        assert se == 0.0

    @pytest.mark.parametrize("kind, solver, expected", [
        ("grid", "graphcut", ("0x1.f384eae7e74c9p+2", "0x1.5206e5372e2e4p-1")),
        ("chain", "chain", ("0x1.80f3f1f49a561p+3", "0x1.060d9c0e360b7p-1")),
    ])
    def test_golden(self, kind, solver, expected):
        """Mean and standard error of 50 draws on a fixed 4x4 teacher grid
        and 8-variable chain, pinned bit for bit: each draw's value is
        summed over p + z after its solve returns the labels."""
        gen = gen_grid_dataset if kind == "grid" else gen_chain_dataset
        shape = (4, 3) if kind == "grid" else (8, 3, 4)
        xs, teacher = gen(1, *shape, seed=5, teacher_seed=1006)
        p = compile_potentials(teacher, xs[0])
        mean, se = estimate_A(p, EstimatorConfig(50, seed=17, solver=solver))
        assert (mean.hex(), se.hex()) == expected

    @pytest.mark.parametrize("kind, solver", [
        ("chain", "chain"), ("chain", "brute"),
        ("grid", "graphcut"), ("grid", "brute"),
    ])
    @pytest.mark.parametrize("num_samples", [1, 2, 50])
    def test_values_are_evaluate_potential(self, rng, kind, solver,
                                           num_samples):
        """(mean, stderr) bit for bit from ``evaluate_potential`` on each
        draw's perturbed tables at that draw's labels."""
        for i in range(10):
            if kind == "chain":
                p = random_chain_potentials(rng, scale=10.0 ** (i % 5 - 2))
            else:
                p = random_supermodular_grid(rng, scale=10.0 ** (i % 5 - 2))
            cfg = EstimatorConfig(num_samples, seed=i, solver=solver)
            znoise = gumbel._noise_batch(p.model, cfg, gumbel.TAG_ESTIMATE)
            labels = gumbel._perturbed_map_batch(p, znoise, solver)
            vals = np.array([evaluate_potential(p.with_unary(p.unary + z), y)
                             for z, y in zip(znoise, labels)])
            se = (0.0 if num_samples == 1 else
                  float(np.std(vals, ddof=1) / math.sqrt(num_samples)))
            assert estimate_A(p, cfg) == (float(np.mean(vals)), se)


class TestEstimateB:
    def test_isolated_variable_decomposes(self, rng):
        m = chain_model(1, 2).__class__(3, 2, ())
        u = rng.normal(size=(3, 2))
        p = CompiledPotentials(m, u, np.zeros((0, 2, 2)))
        z = sample_noise(m, 9)
        pert = p.with_unary(p.unary + z)
        y_b = perturbed_conditional_map(pert, [(1, 0)], "brute")[0]
        val = evaluate_potential(pert, y_b) - z[1, 0]
        rest = sum(max(u[d] + z[d, :2]) for d in (0, 2))
        assert val == pytest.approx(u[1, 0] + rest, abs=1e-9)

    def test_shared_noise_cancellation(self, rng):
        """Clamping to the unconditional maximizer's label reproduces it."""
        for t in range(200):
            p = random_chain_potentials(rng, num_vars=5, num_labels=3)
            z = sample_noise(p.model, 500 + t)
            y_a, _ = perturbed_map(p, z, "chain")
            d = int(rng.integers(5))
            y_b = perturbed_conditional_map(p.with_unary(p.unary + z),
                                            [(d, int(y_a[d]))], "chain")[0]
            assert np.array_equal(y_a, y_b)

    def test_mean_bounds_clamped_partition(self, rng):
        p = random_chain_potentials(rng, num_vars=5, num_labels=2)
        d, k = 2, 1
        b_true, _, _ = brute_force_clamped(p, d, k)
        vals = []
        for i in range(2000):
            z = sample_noise(p.model, 7000 + i)
            pert = p.with_unary(p.unary + z)
            y_b = perturbed_conditional_map(pert, [(d, k)], "chain")[0]
            vals.append(evaluate_potential(pert, y_b) - z[d, k])
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
        assert mean >= b_true - 3 * se


class TestCountingMarginals:
    def test_zero_potentials_uniform(self):
        p = zero_potentials(chain_model(4, 3))
        q = counting_marginals(p, EstimatorConfig(10_000, seed=5, solver="chain"))
        se = np.sqrt((1 / 3) * (2 / 3) / 10_000)
        for d in range(4):
            assert np.all(np.abs(q[d] - 1 / 3) <= 3 * se)
            assert q[d].sum() == 1.0

    def test_separable_matches_softmax(self, rng):
        m = chain_model(5, 3)
        u = rng.normal(size=(5, 3))
        p = CompiledPotentials(m, u, np.zeros((4, 3, 3)))
        q = counting_marginals(p, EstimatorConfig(10_000, seed=6, solver="chain"))
        for d in range(5):
            tgt = softmax(u[d])
            se = np.sqrt(tgt * (1 - tgt) / 10_000)
            assert np.all(np.abs(q[d] - tgt) <= 3 * se)

    def test_single_sample_one_hot(self, rng):
        p = random_chain_potentials(rng, num_vars=4, num_labels=3)
        q = counting_marginals(p, EstimatorConfig(1, seed=8, solver="chain"))
        for d in range(4):
            row = q[d]
            assert sorted(row.tolist()) == [0.0, 0.0, 1.0]

    def test_coupled_bias_bounded(self, rng):
        """On small coupled models the counting estimate stays within 0.1
        of the exact marginals elementwise."""
        for _ in range(5):
            p = random_chain_potentials(rng, num_vars=4, num_labels=2)
            q = counting_marginals(p, EstimatorConfig(4000, seed=9, solver="chain"))
            exact = brute_force(p).marginals
            assert np.max(np.abs(q - exact)) <= 0.1


class TestConditionalCounting:
    def test_all_given_one_hot(self, rng):
        p = random_chain_potentials(rng, num_vars=3, num_labels=2)
        q = conditional_counting_marginals(
            p, {0: 1, 1: 0, 2: 1}, EstimatorConfig(10, seed=0, solver="chain"))
        assert np.allclose(q, [[0, 1], [1, 0], [0, 1]])

    def test_none_given_equals_counting(self, rng):
        """With nothing given, conditional counting is counting, bit for
        bit, on every solver."""
        m = grid_model(2, 2, num_labels=3)
        cases = [
            (random_chain_potentials(rng, num_vars=4, num_labels=2), "chain"),
            (random_supermodular_grid(rng, rows=3, cols=3), "graphcut"),
            (CompiledPotentials(m, rng.normal(size=(4, 3)),
                                rng.normal(size=(4, 3, 3))), "brute"),
        ]
        for p, solver in cases:
            cfg = EstimatorConfig(300, seed=4, solver=solver)
            q1 = conditional_counting_marginals(p, {}, cfg)
            q2 = counting_marginals(p, cfg)
            assert np.array_equal(q1, q2), solver

    def test_matches_brute_conditional_on_weak_coupling(self, rng):
        """With weak coupling the perturb-and-MAP bias is far below the
        binomial noise, so the estimate matches the exact conditional."""
        m = chain_model(4, 2)
        u = rng.normal(size=(4, 2))
        pw = rng.normal(size=(3, 2, 2)) * 0.25
        p = CompiledPotentials(m, u, pw)
        q = conditional_counting_marginals(
            p, {0: 1}, EstimatorConfig(10_000, seed=12, solver="chain"))
        assert np.allclose(q[0], [0.0, 1.0])
        states, vals = all_state_values(p)
        mask = states[:, 0] == 1
        pr = np.exp(vals[mask] - vals[mask].max())
        pr /= pr.sum()
        for d in range(1, 4):
            tgt = np.bincount(states[mask][:, d], weights=pr, minlength=2)
            se = np.sqrt(np.maximum(tgt * (1 - tgt), 1e-12) / 10_000)
            assert np.all(np.abs(q[d] - tgt) <= 3 * se + 1e-9)


class TestCountingGolden:
    """Counting marginals pinned bit for bit: the batched chain path
    (``viterbi_map_batch``) on a 3-label chain, and conditional counting
    by warm graph cuts on a 6x6 grid with given labels."""

    def test_chain_counting_golden(self):
        chains, teacher = gen_chain_dataset(2, 7, 3, 4, seed=21,
                                            teacher_seed=7)
        digest = hashlib.sha256()
        for i, x in enumerate(chains):
            q = counting_marginals(
                compile_potentials(teacher, x),
                EstimatorConfig(200, 13, "chain", stream_context=i + 1))
            assert q.shape == (7, 3)
            digest.update(q.tobytes())
        assert digest.hexdigest() == ("492f239878d61ca6d6deb62689f4af56"
                                      "329425393987304eeec38dc0a60aefd1")

    def test_grid_conditional_counting_golden(self):
        grids, teacher = gen_grid_dataset(1, 6, 3, seed=17, teacher_seed=1009)
        x = grids[0]
        given = {d: int(x.labels[d]) for d in range(0, 36, 4)}
        q = conditional_counting_marginals(
            compile_potentials(teacher, x), given,
            EstimatorConfig(60, 11, "graphcut", stream_context=1))
        assert q.shape == (36, 2)
        digest = hashlib.sha256(q.tobytes()).hexdigest()
        assert digest == ("ad730550233464276a6d3ab64ec5e03b"
                          "af74d05e44f49f08fe7d115e5e8bab3a")
