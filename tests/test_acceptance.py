"""Acceptance criteria: one test per criterion, at its stated tolerance.

Each test prints a single CRITERION line with its outcome.  Statistical
criteria run on fixed seeds so the whole suite is reproducible
bit-for-bit.
"""

import time

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from gumbelmap.cuts import build_cut_problem, clamp_variables
from gumbelmap.exact import (
    brute_force,
    forward_backward_marginals,
    forward_log_partition,
    viterbi_map,
)
from gumbelmap.gumbel import (
    EstimatorConfig,
    counting_marginals,
    estimate_A,
    perturbed_conditional_map,
    perturbed_map,
    sample_noise,
)
from gumbelmap.model import (
    CompiledPotentials,
    FeatureInstance,
    HAMMING,
    LossSpec,
    WEIGHTED_HAMMING,
    WeightLayout,
    WeightVector,
    ZERO_ONE,
    chain_model,
    compile_potentials,
    evaluate_potential,
    loss as eval_loss,
    zero_weights,
)
from gumbelmap.synth import gen_chain_dataset, gen_grid_dataset
from gumbelmap.training import (
    TrainConfig,
    predict,
    train,
    train_semisupervised,
)

from conftest import (brute_force_clamped, frozen_noise_objective,
                      random_chain_potentials, random_supermodular_grid)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module", autouse=True)
def _warm_solvers():
    """Compile the flow kernel before any timed section."""
    p = random_supermodular_grid(np.random.default_rng(0), rows=2, cols=2)
    st = build_cut_problem(p)
    st.solve()
    st.update_unary(0, (0.5, -0.5))
    st.solve()


def test_criterion_01_exact_inference_oracles():
    """Forward/Viterbi/forward-backward agree with enumeration on >= 500
    random chains (D <= 10, K <= 3)."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(500):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(2, 4))
        p = random_chain_potentials(rng, num_vars=d, num_labels=k,
                                    scale=float(rng.uniform(0.3, 2.0)))
        bf = brute_force(p)
        assert abs(forward_log_partition(p) - bf.log_partition) <= 1e-9
        y_vit = viterbi_map(p)
        assert evaluate_potential(p, y_vit) == bf.map_value  # exact
        q = forward_backward_marginals(p)
        assert np.max(np.abs(q - bf.marginals)) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(1, "exact-inference oracle equivalence", elapsed < 30.0,
            f"500 chains in {elapsed:.1f}s")


def test_criterion_02_graph_cut_oracles():
    """Cut MAPs and clamped conditional maxima equal enumeration on >= 500
    random supermodular binary models up to 3x4."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    for _ in range(500):
        p = random_supermodular_grid(rng, rows=int(rng.integers(1, 4)),
                                     cols=int(rng.integers(1, 5)))
        bf = brute_force(p)
        y, val = build_cut_problem(p).solve()
        assert abs(val - bf.map_value) <= 1e-9
        if p.model.num_vars >= 2:
            d = int(rng.integers(p.model.num_vars))
            k = int(rng.integers(2))
            _, cond_true, _ = brute_force_clamped(p, d, k)
            cond = evaluate_potential(
                p, brute_force(clamp_variables(p, {d: k})).map_labeling)
            assert abs(cond - cond_true) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(2, "graph-cut oracle equivalence", elapsed < 60.0,
            f"500 models in {elapsed:.1f}s")


def test_criterion_03_dynamic_cut_exactness_and_speed():
    """1000 dynamic re-solves match fresh solves on a 10x10 grid; on a
    50x50 grid the dynamic sequence is at least 1.1x faster than fresh."""
    rng = np.random.default_rng(303)
    p = random_supermodular_grid(rng, rows=10, cols=10)
    u = p.unary.copy()
    st = build_cut_problem(p)
    st.solve()
    for _ in range(1000):
        d = int(rng.integers(100))
        new = rng.normal(size=2) * 3
        u[d] = new
        st.update_unary(d, new)
        _, val = st.solve()
        fresh = CompiledPotentials(p.model, u.copy(), p.pairwise)
        _, val_f = build_cut_problem(fresh).solve()
        assert abs(val - val_f) <= 1e-9

    big = random_supermodular_grid(rng, rows=50, cols=50)
    u = big.unary.copy()
    st = build_cut_problem(big)
    st.solve()
    updates = [(int(rng.integers(2500)), rng.normal(size=2) * 3)
               for _ in range(1000)]
    t0 = time.perf_counter()
    for d, new in updates:
        st.update_unary(d, new)
        st.solve()
    t_dynamic = time.perf_counter() - t0
    for d, new in updates:
        u[d] = new
    t0 = time.perf_counter()
    for d, new in updates:
        fresh = CompiledPotentials(big.model, u, big.pairwise)
        build_cut_problem(fresh).solve()
    t_fresh = time.perf_counter() - t0
    speedup = t_fresh / t_dynamic
    _report(3, "dynamic-cut exactness and speed", speedup >= 1.1,
            f"speedup {speedup:.1f}x (dynamic {t_dynamic:.2f}s, "
            f"fresh {t_fresh:.2f}s)")


def test_criterion_04_gumbel_bound_properties():
    """(a) separable tightness within 3 stderr in >= 96% of 50 models;
    (b) upper bound within 3 stderr in >= 98% of 50 coupled models."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    tight = 0
    for i in range(50):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 4))
        model = chain_model(d, k)
        u = rng.normal(size=(d, k)) * float(rng.uniform(0.3, 2.0))
        u[:, k:] = 0.0
        full = np.zeros((d, model.num_labels))
        full[:, :k] = u[:, :k]
        p = CompiledPotentials(model, full,
                               np.zeros((d - 1, model.num_labels,
                                         model.num_labels)))
        truth = float(sum(logsumexp(u[j, :k]) for j in range(d)))
        mean, se = estimate_A(p, EstimatorConfig(2000, seed=1000 + i,
                                                 solver="chain"))
        tight += int(abs(mean - truth) <= 3 * se)
    bound = 0
    for i in range(50):
        p = random_chain_potentials(rng, num_vars=int(rng.integers(3, 9)),
                                    num_labels=2)
        truth = brute_force(p).log_partition
        mean, se = estimate_A(p, EstimatorConfig(2000, seed=2000 + i,
                                                 solver="chain"))
        bound += int(mean + 3 * se >= truth)
    elapsed = time.perf_counter() - t0
    _report(4, "Gumbel bound tightness and upper bound",
            tight >= 48 and bound >= 49 and elapsed < 120.0,
            f"tight {tight}/50, bound {bound}/50 in {elapsed:.1f}s")


def test_criterion_05_shared_noise_cancellation():
    """10^4 (model, noise, d) triples with the clamp label equal to the
    unconditional maximizer's label: maximizers coincide exactly (values
    and feature vectors), and acceleration ON/OFF trajectories are
    bitwise identical over 500 iterations of a grid task."""
    rng = np.random.default_rng(505)
    layout = WeightLayout(3, 2, 1)
    checked = 0
    for m in range(250):
        kind = m % 2
        if kind == 0:
            p = random_chain_potentials(rng, num_vars=6, num_labels=3)
            solver = "chain"
        else:
            p = random_supermodular_grid(rng, rows=2, cols=3)
            solver = "graphcut"
        for t in range(40):
            z = sample_noise(p.model, 9000 + m, context=(t, 0))
            y_a, _ = perturbed_map(p, z, solver)
            d = int(rng.integers(p.model.num_vars))
            k = int(y_a[d])
            y_b = perturbed_conditional_map(p.with_unary(p.unary + z),
                                            [(d, k)], solver)[0]
            assert np.array_equal(y_a, y_b)
            assert evaluate_potential(p, y_a) == evaluate_potential(p, y_b)
            checked += 1
    assert checked == 10_000

    data, teacher = gen_grid_dataset(6, 4, 2, seed=55, teacher_seed=55)
    base = dict(lam=0.1, iters=500, batch=2, loss=LossSpec(HAMMING),
                seed=77, solver="graphcut", layout=teacher.layout)
    r_on = train(data, TrainConfig(acceleration=True, **base))
    r_off = train(data, TrainConfig(acceleration=False, **base))
    bitwise = (np.array_equal(r_on.weights.values, r_off.weights.values)
               and np.array_equal(r_on.averaged.values, r_off.averaged.values))
    _report(5, "shared-noise cancellation / acceleration soundness",
            bitwise, f"{checked} triples exact, 500-iter trajectories "
            f"bitwise equal: {bitwise}")


def test_criterion_06_fixed_noise_gradient_check():
    """At 20 stable random weight points the analytic gradient of the
    frozen-noise objective matches central differences (eps = 1e-6)
    within 1e-5 relative."""
    rng = np.random.default_rng(606)
    layout = WeightLayout(2, 2, 1)
    model = chain_model(4, 2)
    x = FeatureInstance(model, rng.normal(size=(4, 2)), np.ones((3, 1)),
                        rng.integers(0, 2, size=4))
    z = sample_noise(model, 66)
    spec = LossSpec(HAMMING)
    solver = "brute"

    def labelings_at(w):
        p = compile_potentials(w, x)
        pert = p.with_unary(p.unary + z)
        y_a, _ = perturbed_map(p, z, solver)
        out = [y_a.tolist()]
        for d in range(4):
            y_b = perturbed_conditional_map(pert, [(d, int(x.labels[d]))],
                                            solver)[0]
            out.append(y_b.tolist())
        return out

    stable_checked = 0
    attempts = 0
    while stable_checked < 20 and attempts < 200:
        attempts += 1
        w = WeightVector(rng.normal(size=layout.total_size), layout)
        ref = labelings_at(w)
        stable = True
        for i in range(layout.total_size):
            for sgn in (+1.0, -1.0):
                wp = w.values.copy()
                wp[i] += sgn * 1e-5
                if labelings_at(WeightVector(wp, layout)) != ref:
                    stable = False
                    break
            if not stable:
                break
        if not stable:
            continue
        obj0, grad = frozen_noise_objective(w, x, x.labels, z, spec, solver)
        for i in range(layout.total_size):
            wp, wm = w.values.copy(), w.values.copy()
            wp[i] += 1e-6
            wm[i] -= 1e-6
            op, _ = frozen_noise_objective(WeightVector(wp, layout), x,
                                           x.labels, z, spec, solver)
            om, _ = frozen_noise_objective(WeightVector(wm, layout), x,
                                           x.labels, z, spec, solver)
            fd = (op - om) / 2e-6
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))
        stable_checked += 1
    _report(6, "frozen-noise gradient check", stable_checked == 20,
            f"{stable_checked}/20 stable points, {attempts} attempts")


def _chain_marginal_loss(w, data):
    total = 0.0
    for x in data:
        q = forward_backward_marginals(compile_potentials(w, x))
        total += float((q.argmax(axis=1) != x.labels).mean())
    return total / len(data)


def test_criterion_07_end_to_end_chain_learning():
    """Teacher chains (200 train / 200 test, D = 8, K = 3):
    (a) whole-labeling training beats the untrained model in 10/10 seeds;
    (b) marginal-likelihood training reaches the teacher's marginal-argmax
    loss within 15% relative."""
    t0 = time.perf_counter()
    train_data, teacher = gen_chain_dataset(200, 8, 3, 4, seed=101,
                                            teacher_seed=7, teacher_scale=1.0)
    test_data, _ = gen_chain_dataset(200, 8, 3, 4, seed=202, teacher=teacher)
    bayes = _chain_marginal_loss(teacher, test_data)

    wins = 0
    for s in range(10):
        cfg = TrainConfig(lam=0.1, iters=600, batch=5, loss=LossSpec(ZERO_ONE),
                          seed=s, solver="chain", layout=teacher.layout)
        rep = train(train_data, cfg)
        trained = _chain_marginal_loss(rep.averaged, test_data)
        untrained = _chain_marginal_loss(zero_weights(teacher.layout), test_data)
        wins += int(trained < untrained)

    cfg2 = TrainConfig(lam=0.05, iters=2000, batch=5, loss=LossSpec(HAMMING),
                       seed=11, solver="chain", layout=teacher.layout)
    rep2 = train(train_data, cfg2)
    marg = _chain_marginal_loss(rep2.averaged, test_data)
    rel = (marg - bayes) / bayes
    elapsed = time.perf_counter() - t0
    _report(7, "end-to-end chain learning",
            wins == 10 and rel <= 0.15 and elapsed < 300.0,
            f"wins {wins}/10, loss {marg:.4f} vs Bayes {bayes:.4f} "
            f"(rel {rel:+.1%}) in {elapsed:.0f}s")


def test_criterion_08_semisupervised_direction():
    """6x6 grids, 10% labeled / 90% unlabeled, weighted Hamming: the
    semi-supervised mean test loss does not exceed the supervised-only
    mean over 10 paired seeds (the direction of the paper's low-label
    experiment; its absolute numbers need the external dataset)."""

    def strip(x):
        return FeatureInstance(x.model, x.node_features, x.edge_features,
                               None, x.node_volumes)

    def run_pair(seed):
        data, teacher = gen_grid_dataset(35, 6, 3, seed=seed,
                                         teacher_seed=seed, teacher_scale=1.0)
        train_all, test = data[:20], data[20:]
        d1 = train_all[:2]
        d2 = [strip(x) for x in train_all[2:]]
        spec = LossSpec(WEIGHTED_HAMMING)
        layout = teacher.layout

        def evaluate(w):
            total = 0.0
            for i, x in enumerate(test):
                est = EstimatorConfig(100, seed, "graphcut",
                                      stream_context=i + 1)
                y_hat = predict(compile_potentials(w, x), "marginal", est)
                total += eval_loss(spec, x.labels, y_hat, x.volumes())
            return total / len(test)

        cfg = TrainConfig(lam=0.1, iters=200, batch=2, loss=spec, seed=seed,
                          solver="graphcut", layout=layout, kappa=1.0,
                          inference_samples=100)
        semi = evaluate(train_semisupervised(d1, d2, cfg).averaged)
        sup = evaluate(train_semisupervised(d1, [], cfg).averaged)
        return semi, sup

    semis, sups = [], []
    for s in range(10):
        a, b = run_pair(1000 + s)
        semis.append(a)
        sups.append(b)
    mean_semi, mean_sup = float(np.mean(semis)), float(np.mean(sups))
    _report(8, "semi-supervised paired direction", mean_semi <= mean_sup,
            f"semi {mean_semi:.5f} <= supervised-only {mean_sup:.5f}, "
            f"wins {sum(a <= b for a, b in zip(semis, sups))}/10")


def test_criterion_09_benchmark_counters():
    """The skipped-solve fraction grows as training converges, and all
    four inner-loop variants produce the same trajectories within 1e-9."""
    data, teacher = gen_grid_dataset(4, 4, 2, seed=99, teacher_seed=99,
                                     teacher_scale=2.5)
    variants = {"basic": (False, False), "DC": (False, True),
                "GR": (True, False), "DC+GR": (True, True)}
    reports = {}
    for name, (gr, dc) in variants.items():
        # constant small steps: convergence (and with it the skip rate)
        # builds up across the whole horizon instead of in the first
        # hundred iterations
        cfg = TrainConfig(lam=0.005, iters=10_000, batch=1,
                          loss=LossSpec(HAMMING), seed=13, solver="graphcut",
                          layout=teacher.layout, acceleration=gr,
                          dynamic_cuts=dc, stepsize=0.005)
        reports[name] = train(data, cfg)

    # GR mechanism: more skips per budget as the model fits the labels
    series = dict(reports["GR"].skipped_fraction_series)
    frac_100, frac_10k = series[100], series[10_000]

    base = reports["basic"]
    traj_ok = True
    for name in ("DC", "GR", "DC+GR"):
        rep = reports[name]
        if np.max(np.abs(rep.weights.values - base.weights.values)) > 1e-9:
            traj_ok = False
        if np.max(np.abs(rep.objective_estimates
                         - base.objective_estimates)) > 1e-9:
            traj_ok = False
    counts = {n: r.counters.map_solves + r.counters.clamp_solves
              for n, r in reports.items()}
    order_ok = counts["DC+GR"] <= counts["GR"] <= counts["basic"]
    _report(9, "benchmark counters and variant equality",
            frac_10k > frac_100 and traj_ok and order_ok,
            f"skipped {frac_100:.3f}@100 -> {frac_10k:.3f}@10k, "
            f"solves {counts}")


def test_criterion_10_counting_marginal_calibration():
    """Counting marginals on separable models: within 3 binomial stderr of
    the softmax in >= 95% of cells at M = 10^4; rows sum to exactly 1."""
    rng = np.random.default_rng(1010)
    good = 0
    total = 0
    for i in range(20):
        model = chain_model(6, 3)
        u = rng.normal(size=(6, 3)) * float(rng.uniform(0.3, 1.5))
        p = CompiledPotentials(model, u, np.zeros((5, 3, 3)))
        q = counting_marginals(p, EstimatorConfig(10_000, seed=3000 + i,
                                                  solver="chain"))
        for d in range(6):
            assert q[d].sum() == 1.0
            tgt = softmax(u[d])
            se = np.sqrt(tgt * (1 - tgt) / 10_000)
            for k in range(3):
                good += int(abs(q[d, k] - tgt[k]) <= 3 * se[k])
                total += 1
    _report(10, "counting-marginal calibration", good / total >= 0.95,
            f"{good}/{total} cells within 3 stderr")
