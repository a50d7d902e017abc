"""Min-cut MAP solving, dynamic unary updates, and clamping."""

import contextlib
import dataclasses
import hashlib
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gumbelmap import gumbel
from gumbelmap.cuts import (
    DynamicCutState,
    build_cut_problem,
    clamp_variables,
    pin_margins,
)
from gumbelmap.errors import PreconditionError, StructuralError
from gumbelmap.exact import all_state_values, brute_force
from gumbelmap.gumbel import (
    TAG_COUNT,
    EstimatorConfig,
    _noise_batch,
    _map_labels,
    _perturbed_map_batch,
    condition_on_given,
    sample_noise,
)
from gumbelmap.model import (
    WEIGHTED_HAMMING,
    CompiledPotentials,
    LossSpec,
    PairwiseModel,
    chain_model,
    compile_potentials,
    evaluate_potential,
    grid_model,
)
from gumbelmap.synth import gen_grid_dataset
from gumbelmap.training import TrainCounters, _label_table

from conftest import (brute_force_clamped, element, random_supermodular_grid,
                      zero_potentials)


class TestBuildAndSolve:
    def test_zero_potentials(self):
        st = build_cut_problem(zero_potentials(grid_model(2, 2)))
        y, val = st.solve()
        assert val == 0.0
        assert y.tolist() == [0, 0, 0, 0]

    def test_single_variable(self):
        m = chain_model(1, 2)
        p = CompiledPotentials(m, np.array([[0.0, 5.0]]), np.zeros((0, 2, 2)))
        y, val = build_cut_problem(p).solve()
        assert y.tolist() == [1] and val == 5.0

    def test_unary_only_argmax(self, rng):
        m = grid_model(2, 3)
        u = rng.normal(size=(6, 2))
        p = CompiledPotentials(m, u, np.zeros((7, 2, 2)))
        y, _ = build_cut_problem(p).solve()
        assert y.tolist() == list(np.argmax(u, axis=1))

    def test_attractive_coupling_flips_minority(self):
        """Strong agreement rewards outweigh a lone dissenting unary."""
        m = grid_model(3, 3)
        u = np.zeros((9, 2))
        u[:, 1] = 1.0
        u[4, 0], u[4, 1] = 3.0, 0.0  # the center prefers 0, weakly
        pw = np.zeros((m.num_edges, 2, 2))
        pw[:, 0, 0] = 10.0
        pw[:, 1, 1] = 10.0
        p = CompiledPotentials(m, u, pw)
        y, val = build_cut_problem(p).solve()
        bf = brute_force(p)
        assert val == pytest.approx(bf.map_value, abs=1e-9)
        assert y.tolist() == [1] * 9

    def test_random_supermodular_equals_brute_force(self, rng):
        for _ in range(60):
            p = random_supermodular_grid(rng)
            st = build_cut_problem(p)
            y, val = st.solve()
            bf = brute_force(p)
            assert val == pytest.approx(bf.map_value, abs=1e-9)
            assert evaluate_potential(p, y) == pytest.approx(bf.map_value,
                                                             abs=1e-9)

    def test_rejects_nonbinary(self):
        with pytest.raises(PreconditionError):
            build_cut_problem(zero_potentials(chain_model(3, 3)))

    def test_rejects_submodular_violation(self):
        m = chain_model(2, 2)
        pw = np.zeros((1, 2, 2))
        pw[0, 0, 1] = pw[0, 1, 0] = 1.0  # repulsive: not supermodular
        with pytest.raises(PreconditionError):
            build_cut_problem(CompiledPotentials(m, np.zeros((2, 2)), pw))

    @pytest.mark.parametrize("unary, agree", [
        # finite tables whose constant, the sum of the unary shifts,
        # overflows
        ([[-1e308, -1e308], [-1e308, -1e308]], 0.0),
        # finite tables whose edge capacity p(0,0) + p(1,1) overflows
        ([[0.0, 0.0], [0.0, 0.0]], 1e308),
    ])
    def test_rejects_overflowing_network(self, unary, agree):
        """A network whose constant or a capacity is not finite is refused
        before any solve, and numpy's overflow warning does not leak."""
        m = chain_model(2, 2)
        pw = np.zeros((1, 2, 2))
        pw[0, 0, 0] = pw[0, 1, 1] = agree
        p = CompiledPotentials(m, np.array(unary), pw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="overflows"):
                build_cut_problem(p)


class TestDynamicUpdates:
    def test_noop_update_no_augmentation(self, rng):
        p = random_supermodular_grid(rng, rows=3, cols=3)
        st = build_cut_problem(p)
        _, v1 = st.solve()
        st.update_unary(2, p.unary[2])
        _, v2 = st.solve()
        assert st.last_augmentations == 0
        assert v1 == v2

    def test_flip_matches_fresh(self):
        m = chain_model(2, 2)
        u = np.array([[0.0, 5.0], [1.0, 0.0]])
        pw = np.zeros((1, 2, 2))
        pw[0, 0, 0] = pw[0, 1, 1] = 0.5
        p = CompiledPotentials(m, u.copy(), pw)
        st = build_cut_problem(p)
        st.solve()
        st.update_unary(0, (5.0, 0.0))
        y, val = st.solve()
        u[0] = (5.0, 0.0)
        y_f, val_f = build_cut_problem(CompiledPotentials(m, u, pw)).solve()
        assert val == pytest.approx(val_f, abs=1e-12)
        assert np.array_equal(y, y_f)

    def test_long_random_update_sequence(self, rng):
        """Dynamic solves equal fresh solves along random update chains."""
        p = random_supermodular_grid(rng, rows=3, cols=4)
        u = p.unary.copy()
        st = build_cut_problem(p)
        st.solve()
        for _ in range(200):
            d = int(rng.integers(p.model.num_vars))
            new = rng.normal(size=2) * 3
            u[d] = new
            st.update_unary(d, new)
            y, val = st.solve()
            fresh = CompiledPotentials(p.model, u.copy(), p.pairwise)
            _, val_f = build_cut_problem(fresh).solve()
            assert val == pytest.approx(val_f, abs=1e-9)
            assert evaluate_potential(fresh, y) == pytest.approx(val, abs=1e-12)

    def test_bulk_updates_match_fresh(self, rng):
        p = random_supermodular_grid(rng, rows=3, cols=4)
        st = build_cut_problem(p)
        st.solve()
        for _ in range(30):
            u = rng.normal(size=(p.model.num_vars, 2)) * 2
            for d in range(p.model.num_vars):
                st.update_unary(d, u[d])
            _, val = st.solve()
            fresh = CompiledPotentials(p.model, u, p.pairwise)
            assert val == pytest.approx(brute_force(fresh).map_value, abs=1e-9)

    def test_solve_value_tracks_current_tables(self, rng):
        """After random unary updates and warm solves, the value solve()
        reads from its constant and flow equals evaluate_potential on the
        current tables up to rounding: update_unary's bookkeeping of the
        constant follows every row it rewrites."""
        for _ in range(5):
            p = random_supermodular_grid(rng, rows=4, cols=5)
            u = p.unary.copy()
            st = build_cut_problem(p)
            for _ in range(40):
                for d in rng.choice(p.model.num_vars, 3, replace=False):
                    u[d] = rng.normal(size=2) * 2
                    st.update_unary(int(d), u[d].tolist())
                y, val = st.solve()
                tables = CompiledPotentials(p.model, u.copy(), p.pairwise)
                assert val == pytest.approx(evaluate_potential(tables, y),
                                            abs=1e-9)
                assert np.array_equal(np.reshape(st.unary, u.shape), u)

    def test_update_out_of_range(self, rng):
        st = build_cut_problem(random_supermodular_grid(rng, 2, 2))
        with pytest.raises(StructuralError):
            st.update_unary(99, (0.0, 0.0))
        with pytest.raises(StructuralError):
            st.replace_unary(np.zeros((3, 2)))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5),
           integer=st.booleans(), solved=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_table_form_equals_row_calls_bitwise(self, rows, cols, integer,
                                                 solved, seed):
        """``update_unary(None, table)`` leaves the capacities, the unary
        table, the constant (compared by ``float.hex``) and the marks that
        D row calls leave, on solved and unsolved states, over a sequence
        of tables.  Small-integer tables, and rows kept from the current
        table, make ties, zero capacities and unchanged rows common; their
        zeros are signed, so a row can equal the current one and differ in
        its bits."""
        rng = np.random.default_rng(seed)
        m = grid_model(rows, cols)
        if integer:
            def table(*shape):
                return (rng.integers(-2, 3, size=shape)
                        * rng.choice([-1.0, 1.0], size=shape))
        else:
            def table(*shape):
                return rng.normal(size=shape) * 2
        pw = table(m.num_edges, 2, 2)
        gap = pw[:, 0, 0] + pw[:, 1, 1] - pw[:, 0, 1] - pw[:, 1, 0]
        pw[:, 0, 0] += np.maximum(-gap, 0.0)
        p = CompiledPotentials(m, table(m.num_vars, 2), pw)
        block, by_row = build_cut_problem(p), build_cut_problem(p)

        def bits(state):
            return ([c.hex() for c in state.trcap],
                    [u.hex() for u in state.unary.tolist()],
                    state.const.hex(), set(state._marked))

        for _ in range(4):
            if solved:
                assert (block.solve()[0].tolist()
                        == by_row.solve()[0].tolist())
            new = table(m.num_vars, 2)
            kept = rng.random(m.num_vars) < 0.3
            new[kept] = block.unary.reshape(-1, 2)[kept]
            block.update_unary(None, new)
            for d in range(m.num_vars):
                by_row.update_unary(d, new[d].tolist())
            assert bits(block) == bits(by_row)

    @pytest.mark.parametrize("row", [
        [np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [-np.inf, 0.0],
        [0.0, np.inf],
        # finite entries whose terminal capacity overflows
        [1.7e308, -1.7e308],
    ])
    def test_updates_refuse_what_build_refuses(self, rng, row):
        """A row that a build refuses is refused by ``update_unary``, in
        its row and its whole-table form, and by ``replace_unary``, and
        leaves the state as it was: its tables, constant, kept trees and
        marks, so the next solve is the cold solve of the tables the state
        had.  The second table changes every row before its refused last
        one, none of which a refusal may write."""
        p = random_supermodular_grid(rng, 3, 3)
        table = p.unary.copy()
        table[4] = row
        fresh = p.unary + 1.0
        fresh[-1] = row
        with pytest.raises(PreconditionError, match="overflows"):
            build_cut_problem(p.with_unary(table))
        st = build_cut_problem(p)
        st.solve()
        # a pending repair: node 0 is marked, its table as it was
        st.update_unary(0, p.unary[0] + 0.5)
        st.update_unary(0, p.unary[0])

        def snapshot():
            return (list(st.trcap), st.const, list(st.unary), st.solved,
                    set(st._marked))

        before = snapshot()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="overflows"):
                st.update_unary(4, row)
            assert snapshot() == before
            for refused in (table, fresh):
                with pytest.raises(PreconditionError, match="overflows"):
                    st.update_unary(None, refused)
                assert snapshot() == before
                with pytest.raises(PreconditionError, match="overflows"):
                    st.replace_unary(refused)
                assert snapshot() == before
        assert np.array_equal(st.solve()[0],
                              cold_solve(p.model, p.unary, p.pairwise)[0])


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of stalling the suite when a solve does not return."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def cold_solve(model, unary, pairwise):
    return build_cut_problem(
        CompiledPotentials(model, unary.copy(), pairwise)).solve()


class TestWarmSolves:
    def test_repair_restamps_before_adoption(self):
        """A warm repair must not trust distances stamped by the previous
        solve: here it once let orphan 6 adopt its own child 7 (a parent
        cycle), and the next augmentation never returned."""
        m = grid_model(3, 4)
        pw = np.zeros((m.num_edges, 2, 2))
        pw[:, 0, 0] = [0, 2, 1, 0, 0, 2, 0, 1, 0, 1, 0, 2, 1, 1, 2, 2, 1]
        u0 = np.array([[-2, 2], [-2, 2], [0, 2], [-2, -2], [-2, 0], [-2, 2],
                       [-2, -1], [1, 0], [1, -2], [-1, -1], [0, -1], [-2, 0]],
                      dtype=float)
        u1 = np.array([[2, 0], [-2, 2], [-1, -1], [1, -2], [1, 0], [0, 2],
                       [-2, 1], [1, 2], [0, 0], [0, 1], [2, 1], [2, -2]],
                      dtype=float)
        u3 = np.array([[2, -2], [-2, -1], [-2, 2], [2, 0], [-1, -2], [-1, 1],
                       [2, -1], [2, 2], [-2, -2], [1, 2], [0, 1], [1, -2]],
                      dtype=float)
        u2 = u1.copy()
        u2[11] = (-1.0, 1.0)
        state = build_cut_problem(CompiledPotentials(m, u0.copy(), pw))
        with time_limit(20):
            state.solve()
            for d in range(m.num_vars):
                state.update_unary(d, u1[d])
            state.solve()
            state.update_unary(11, u2[11])
            state.solve()
            for d in range(m.num_vars):
                state.update_unary(d, u3[d])
            y, val = state.solve()
        y_cold, val_cold = cold_solve(m, u3, pw)
        assert y.tolist() == y_cold.tolist()
        assert val == val_cold

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(2, 4),
           integer=st.booleans(), seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.one_of(st.none(), st.integers(0, 15)),
                          min_size=1, max_size=6))
    def test_warm_updates_match_cold_and_brute_force(self, rows, cols,
                                                     integer, seed, steps):
        """Warm re-solves after single-variable (an index) or
        all-variable (None) unary updates equal cold solves.  Small-integer
        tables make ties and zero capacities common."""
        rng = np.random.default_rng(seed)
        m = grid_model(rows, cols)
        if integer:
            def table(*shape):
                return rng.integers(-2, 3, size=shape).astype(float)
        else:
            def table(*shape):
                return rng.normal(size=shape) * 2
        pw = table(m.num_edges, 2, 2)
        gap = pw[:, 0, 0] + pw[:, 1, 1] - pw[:, 0, 1] - pw[:, 1, 0]
        pw[:, 0, 0] += np.maximum(-gap, 0.0)
        u = table(m.num_vars, 2)
        state = build_cut_problem(CompiledPotentials(m, u.copy(), pw))
        with time_limit(60):
            state.solve()
            for step in steps:
                targets = (range(m.num_vars) if step is None
                           else [step % m.num_vars])
                for d in targets:
                    u[d] = table(2)
                    state.update_unary(d, u[d])
                y, val = state.solve()
                y_cold, _ = cold_solve(m, u, pw)
                assert y.tolist() == y_cold.tolist()
                best = brute_force(CompiledPotentials(m, u.copy(), pw))
                assert val == pytest.approx(best.map_value, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(2, 4),
           integer=st.booleans(), seed=st.integers(0, 2**32 - 1),
           steps=st.lists(st.one_of(st.none(), st.integers(0, 15)),
                          min_size=1, max_size=8))
    def test_replaced_tables_match_cold_and_brute_force(self, rows, cols,
                                                       integer, seed, steps):
        """Re-solves after a whole-table ``replace_unary`` (None), which
        keeps the flow and regrows the trees, and after single-row
        ``update_unary`` steps (an index), which repair them, possibly on
        regrown trees, equal cold solves.  Small-integer tables make
        ties, zero capacities and unchanged rows common."""
        rng = np.random.default_rng(seed)
        m = grid_model(rows, cols)
        if integer:
            def table(*shape):
                return rng.integers(-2, 3, size=shape).astype(float)
        else:
            def table(*shape):
                return rng.normal(size=shape) * 2
        pw = table(m.num_edges, 2, 2)
        gap = pw[:, 0, 0] + pw[:, 1, 1] - pw[:, 0, 1] - pw[:, 1, 0]
        pw[:, 0, 0] += np.maximum(-gap, 0.0)
        u = table(m.num_vars, 2)
        state = build_cut_problem(CompiledPotentials(m, u.copy(), pw))
        with time_limit(60):
            state.solve()
            for step in steps:
                if step is None:
                    u = table(m.num_vars, 2)
                    state.replace_unary(u)
                    assert state.solved is False
                else:
                    d = step % m.num_vars
                    u[d] = table(2)
                    state.update_unary(d, u[d])
                y, val = state.solve()
                y_cold, _ = cold_solve(m, u, pw)
                assert y.tolist() == y_cold.tolist()
                best = brute_force(CompiledPotentials(m, u.copy(), pw))
                assert val == pytest.approx(best.map_value, abs=1e-9)
                assert np.array_equal(np.reshape(state.unary, u.shape), u)


def residual_reach(state):
    """(sink side, source side) of a solved state's residual graph: the
    nodes that can reach the sink (a reverse search from the nodes with
    sink residual, ``trcap < 0``) and the nodes the source reaches (a
    forward search from ``trcap > 0``), over arcs with ``rcap > 0``.  Arc
    a runs from ``head[a ^ 1]`` to ``head[a]``."""
    first, head, nxt, rcap = state.first, state.head, state.nxt, state.rcap

    def reach(seeds, toward_seed):
        seen, todo = set(seeds), list(seeds)
        while todo:
            v = todo.pop()
            a = first[v]
            while a != -1:
                # toward the seeds, u = head[a] joins by its arc u -> v
                if head[a] not in seen and rcap[a ^ toward_seed] > 0.0:
                    seen.add(head[a])
                    todo.append(head[a])
                a = nxt[a]
        return seen

    nodes = range(len(state.trcap))
    return (reach([i for i in nodes if state.trcap[i] < 0.0], 1),
            reach([i for i in nodes if state.trcap[i] > 0.0], 0))


def oracle_solve(state):
    """``state.solve()``, checked against its residual graph: the labels
    are the nodes that can reach the sink, and the source reaches none of
    them, so no augmenting path is left and the flow is maximal."""
    y, value = state.solve()
    sink, source = residual_reach(state)
    assert set(np.flatnonzero(y).tolist()) == sink
    assert not sink & source
    return y, value


class TestResidualOracle:
    @settings(max_examples=120, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 5),
           integer=st.booleans(), seed=st.integers(0, 2**32 - 1),
           pins=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 1)),
                         max_size=6),
           draws=st.integers(0, 4), n_given=st.integers(0, 3))
    def test_labels_are_the_sink_side_of_the_residual_graph(
            self, rows, cols, integer, seed, pins, draws, n_given):
        """After every solve, BK's labels equal the set of nodes that
        reach the sink in the final residual graph, and no source-reachable
        node is among them: on cold builds of supermodular grids (1x1 and
        1-wide grids included), warm pin/unpin sequences through
        ``clamp_variables``, whole-table ``replace_unary`` draws and pinned
        given nodes.  Small-integer tables make ties and zero capacities
        common."""
        rng = np.random.default_rng(seed)
        m = grid_model(rows, cols)
        if integer:
            def table(*shape):
                return rng.integers(-2, 3, size=shape).astype(float)
        else:
            def table(*shape):
                return rng.normal(size=shape) * 2
        pw = table(m.num_edges, 2, 2)
        gap = pw[:, 0, 0] + pw[:, 1, 1] - pw[:, 0, 1] - pw[:, 1, 0]
        pw[:, 0, 0] += np.maximum(-gap, 0.0)
        p = CompiledPotentials(m, table(m.num_vars, 2), pw)
        state = build_cut_problem(p)
        oracle_solve(state)
        for d, k in pins:
            d %= m.num_vars
            state.update_unary(d, clamp_variables(p, {d: k}).unary[d])
            oracle_solve(state)
            state.update_unary(d, p.unary[d])
            oracle_solve(state)
        given = {int(d): int(rng.integers(2)) for d in
                 rng.choice(m.num_vars, min(n_given, m.num_vars),
                            replace=False)}
        pinned, znoise = condition_on_given(
            p, table(draws, m.num_vars, 2), given)
        for z in znoise:
            state.replace_unary(pinned.unary + z)
            y, _ = oracle_solve(state)
            assert all(y[d] == k for d, k in given.items())

    def test_zero_edge_models(self, rng):
        """With no edges the residual graph has no arcs: the labels are
        the nodes with sink residual, cold, warm and after a
        replacement."""
        for n in (1, 5):
            p = CompiledPotentials(PairwiseModel(n, 2, ()),
                                   rng.integers(-1, 2, size=(n, 2)) * 1.0,
                                   np.zeros((0, 2, 2)))
            state = build_cut_problem(p)
            oracle_solve(state)
            state.update_unary(0, [0.0, 3.0])
            assert oracle_solve(state)[0][0] == 1
            state.replace_unary(rng.normal(size=(n, 2)))
            oracle_solve(state)

    def test_counting_draws_on_a_teacher_grid(self):
        """Every draw of conditional counting on a 16x16 teacher grid with
        a quarter of its labels given, solved through the batch path."""
        grids, teacher = gen_grid_dataset(1, 16, 3, seed=5, teacher_seed=1006)
        x = grids[0]
        p = compile_potentials(teacher, x)
        given = {d: int(x.labels[d]) for d in range(0, x.model.num_vars, 4)}
        pinned, znoise = condition_on_given(
            p, _noise_batch(p.model, EstimatorConfig(10, 3, "graphcut"),
                            TAG_COUNT), given)
        state = build_cut_problem(pinned.with_unary(pinned.unary + znoise[0]))
        oracle_solve(state)
        for z in znoise[1:]:
            state.replace_unary(pinned.unary + z)
            oracle_solve(state)


class TestFlipCertificate:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6),
           tables=st.sampled_from(["normal", "half", "unary-only"]),
           seed=st.integers(0, 2**32 - 1), n_given=st.integers(0, 4),
           pins=st.lists(st.tuples(st.integers(0, 35), st.integers(0, 1)),
                         max_size=2))
    def test_certified_flips_match_cold_pinned_solves(
            self, rows, cols, tables, seed, n_given, pins):
        """Every variable ``flips_alone`` certifies after a solve, pinned
        to the label it does not have and solved cold, gives the solve's
        labeling with that variable flipped.  The certificate reads the
        state and writes nothing.  On supermodular grids from 1x1 to 6x6,
        half-integer tables (ties and zero capacities are common), pinned
        given nodes, and models with no edges; after a cold solve, or
        after warm pin, solve and unpin cycles and a last warm solve."""
        rng = np.random.default_rng(seed)
        m = grid_model(rows, cols)
        if tables == "unary-only":
            m = PairwiseModel(m.num_vars, 2, ())
        if tables == "half":
            def table(*shape):
                return rng.integers(-4, 5, size=shape) / 2.0
        else:
            def table(*shape):
                return rng.normal(size=shape) * 2
        pw = table(m.num_edges, 2, 2)
        if m.num_edges:
            gap = pw[:, 0, 0] + pw[:, 1, 1] - pw[:, 0, 1] - pw[:, 1, 0]
            pw[:, 0, 0] += np.maximum(-gap, 0.0)
        p = CompiledPotentials(m, table(m.num_vars, 2), pw)
        given = {int(d): int(rng.integers(2)) for d in
                 rng.choice(m.num_vars, min(n_given, m.num_vars),
                            replace=False)}
        if given:
            p = clamp_variables(p, given)
        state = build_cut_problem(p)
        state.solve()
        for d, k in pins:
            d %= m.num_vars
            state.update_unary(d, clamp_variables(p, {d: k}).unary[d])
            state.solve()
            state.update_unary(d, p.unary[d])
        y, _ = state.solve()
        before = (state.rcap.copy(), state.trcap.copy(), state.is_sink.copy(),
                  state.parent.copy())
        certified = [d for d in range(m.num_vars) if state.flips_alone(d)]
        assert (state.rcap, state.trcap, state.is_sink, state.parent) == before
        for d in certified:
            k = 1 - int(y[d])
            flipped = y.copy()
            flipped[d] = k
            pinned = clamp_variables(p, {d: k})
            assert build_cut_problem(pinned).solve()[0].tolist() == \
                flipped.tolist()

    def test_pending_update_certifies_nothing(self, rng):
        """Before its first solve, and after an update with no solve
        since, a state certifies no variable, though the solve after the
        update certifies some.  An index out of range is refused, as
        ``update_unary`` refuses it."""
        p = random_supermodular_grid(rng, rows=4, cols=4)
        n = p.model.num_vars
        state = build_cut_problem(p)
        assert not any(state.flips_alone(d) for d in range(n))
        state.solve()
        assert any(state.flips_alone(d) for d in range(n))
        state.update_unary(5, p.unary[5] + 1.0)
        assert not any(state.flips_alone(d) for d in range(n))
        state.solve()
        assert any(state.flips_alone(d) for d in range(n))
        for d in (-1, n):
            with pytest.raises(StructuralError, match="out of range"):
                state.flips_alone(d)


class TestKernelExactness:
    def test_batch_draws_golden(self, monkeypatch):
        """20 perturbed draws on a fixed 16x16 teacher grid, solved in
        sequence on one state that keeps its flow and regrows its trees:
        labels, augmentations per solve and the final flow are pinned bit
        for bit."""
        grids, teacher = gen_grid_dataset(1, 16, 3, seed=5, teacher_seed=1006)
        p = compile_potentials(teacher, grids[0])
        znoise = _noise_batch(p.model, EstimatorConfig(20, 11, "graphcut"),
                              TAG_COUNT)
        states, augmentations = [], []

        def build(potentials):
            states.append(build_cut_problem(potentials))
            return states[-1]

        def solve(self):
            out = plain_solve(self)
            augmentations.append(self.last_augmentations)
            return out

        plain_solve = DynamicCutState.solve
        monkeypatch.setattr(gumbel, "build_cut_problem", build)
        monkeypatch.setattr(DynamicCutState, "solve", solve)
        labels = _perturbed_map_batch(p, znoise, "graphcut")
        digest = hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest()
        assert digest == ("b5a2734725b327227557bd3f61b68bb3"
                          "282a239a1d89faaa67c65d25d49aea3d")
        assert augmentations == [246, 181, 193, 168, 184, 158, 160, 205, 168,
                                 159, 168, 170, 169, 163, 172, 180, 159, 172,
                                 199, 157]
        assert len(states) == 1
        assert float(states[0].flow) == float.fromhex("0x1.38b8c5c2754e7p+11")

    def test_clamped_warm_path_golden(self, monkeypatch):
        """The per-variable kernel on three 6x6 teacher grids (labeled,
        unlabeled with a uniform table, and three given labels), clamps
        re-solved warm on one retained state per element: the gradient
        bytes, the objectives, the counters and the augmentations of every
        solve are pinned bit for bit.  The given labels of the third grid
        are pinned in the graph, not folded out of it."""
        grids, teacher = gen_grid_dataset(3, 6, 3, seed=17, teacher_seed=1009)
        spec = LossSpec(WEIGHTED_HAMMING)
        augmentations = []

        def solve(self):
            out = plain_solve(self)
            augmentations.append(self.last_augmentations)
            return out

        plain_solve = DynamicCutState.solve
        monkeypatch.setattr(DynamicCutState, "solve", solve)
        counters = TrainCounters()
        digest = hashlib.sha256()
        objectives = []
        for i, x in enumerate(grids):
            table = _label_table(x, x.labels, spec)
            given = {}
            if i == 1:
                table = np.full(table.shape, 0.5)
            if i == 2:
                given = {d: int(x.labels[d]) for d in (0, 14, 35)}
            z = sample_noise(x.model, 3, context=(i, 7))
            grad, obj = element(x, table, given,
                                compile_potentials(teacher, x), z,
                                "graphcut", True, True, teacher.layout,
                                counters)
            digest.update(grad.tobytes())
            objectives.append(float(obj).hex())
        assert digest.hexdigest() == ("21c214412408a8f5483f5f71d56fa718"
                                      "7c6c941d5f2d4364122ae7038023e841")
        assert objectives == ["-0x1.9cfab423ed209p-1",
                              "-0x1.673a30c23e61ep+5",
                              "-0x1.243e8c794b16ep-2"]
        assert dataclasses.asdict(counters) == {
            "map_solves": 3, "clamp_solves": 51, "clamp_skipped": 90}
        # 3 unconditional solves and 46 clamped ones: 5 of the 51 clamps
        # are certified by flips_alone and not solved
        assert augmentations == [
            29, 4, 1, 3, 7, 7, 1, 4, 1, 1, 32, 6, 3, 5, 1, 2, 3, 4, 4, 2, 2,
            1, 3, 3, 1, 1, 1, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1,
            1, 1, 20, 1, 1, 1]


class TestClamping:
    def test_conditional_max_equals_brute_force(self, rng):
        for _ in range(30):
            p = random_supermodular_grid(rng)
            if p.model.num_vars < 2:
                continue
            d = int(rng.integers(p.model.num_vars))
            k = int(rng.integers(2))
            sub = brute_force(clamp_variables(p, {d: k}))
            _, cond_max, _ = brute_force_clamped(p, d, k)
            assert evaluate_potential(p, sub.map_labeling) == pytest.approx(
                cond_max, abs=1e-9)

    def test_clamp_commutes_with_constant_shift(self, rng):
        p = random_supermodular_grid(rng, rows=2, cols=3)
        d, k = 2, 1
        u2 = p.unary.copy()
        u2 += 2.5
        p2 = p.with_unary(u2)
        v1 = evaluate_potential(
            p, brute_force(clamp_variables(p, {d: k})).map_labeling)
        v2 = evaluate_potential(
            p2, brute_force(clamp_variables(p2, {d: k})).map_labeling)
        assert v2 - v1 == pytest.approx(2.5 * p.model.num_vars, abs=1e-9)

    def test_multi_clamp_completion(self, rng):
        p = random_supermodular_grid(rng, rows=2, cols=3)
        full = brute_force(clamp_variables(p, {0: 1, 4: 0})).map_labeling
        assert full[0] == 1 and full[4] == 0
        states, vals = all_state_values(p)
        cond_max = vals[(states[:, 0] == 1) & (states[:, 4] == 0)].max()
        assert evaluate_potential(p, full) == pytest.approx(
            cond_max, abs=1e-9)

    def test_invalid_clamp(self, rng):
        p = random_supermodular_grid(rng, 2, 2)
        with pytest.raises(StructuralError):
            clamp_variables(p, {0: 7})
        with pytest.raises(StructuralError):
            clamp_variables(p, {99: 0})

    def test_binary_pin_margins_closed_form(self, rng):
        """On a binary model each margin is |u_d(0) - u_d(1)| plus, per
        incident edge, the largest |change| of the pairwise term as y_d
        flips, plus 1, bit for bit."""
        p = random_supermodular_grid(rng, rows=3, cols=4)
        u, pw = p.unary, p.pairwise
        ea = p.model.edge_array()
        want = np.abs(u[:, 0] - u[:, 1])
        np.add.at(want, ea[:, 0],
                  np.max(np.abs(pw[:, 0, :] - pw[:, 1, :]), axis=1))
        np.add.at(want, ea[:, 1],
                  np.max(np.abs(pw[:, :, 0] - pw[:, :, 1]), axis=1))
        assert pin_margins(p).tobytes() == (want + 1.0).tobytes()

    def test_pins_refused_from_2_52(self, rng):
        """A pinned entry that can reach 2^52, where doubles are spaced by
        1 and the + 1 of a margin can round away, is refused on every pin;
        with the largest entry at 2^50 the same tables pin."""
        p = random_supermodular_grid(rng, rows=2, cols=3)
        for entry in [2.0 ** 52, -2.0 ** 52, 2.0 ** 50]:
            unary = p.unary.copy()
            unary[5, 0] = entry
            big = p.with_unary(unary)
            if abs(entry) == 2.0 ** 52:
                with pytest.raises(StructuralError, match=r"2\^52"):
                    clamp_variables(big, {0: 1})
            else:
                pinned = clamp_variables(big, {5: 1}).unary
                assert pinned[5, 1] == unary[5, 1] + pin_margins(big)[5]

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["chain", "grid", "general"]),
           seed=st.integers(0, 2**32 - 1), n_given=st.integers(1, 3))
    def test_pinned_maximizer_is_conditional_maximizer(self, kind, seed,
                                                       n_given):
        """Chains (K <= 3), supermodular grids and small multi-label
        general graphs with 1-3 given labels under Gumbel noise: on every
        applicable solver the pinned maximizer takes the given labels and
        its value equals the enumerated conditional maximum; so does every
        draw of the batch path, whose given noise rows are zeroed."""
        rng = np.random.default_rng(seed)
        if kind == "grid":
            p = random_supermodular_grid(rng, rows=int(rng.integers(1, 4)),
                                         cols=int(rng.integers(2, 4)))
            solvers = ("graphcut", "brute")
        else:
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, 4))
            if kind == "chain":
                model = chain_model(n, k)
                solvers = ("chain", "brute")
            else:
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                keep = rng.random(len(pairs)) < 0.5
                model = PairwiseModel(
                    n, k, tuple(e for e, b in zip(pairs, keep) if b))
                solvers = ("brute",)
            unary = rng.normal(size=(n, k)) * 2
            pairwise = rng.normal(size=(model.num_edges, k, k)) * 2
            p = CompiledPotentials(model, unary, pairwise)
        model = p.model
        variables = rng.choice(model.num_vars,
                               size=min(n_given, model.num_vars),
                               replace=False)
        given = {int(d): int(rng.integers(model.num_labels))
                 for d in variables}
        z = sample_noise(model, seed % 9973)
        pinned, znoise = condition_on_given(
            p, _noise_batch(model, EstimatorConfig(3, seed % 9973), TAG_COUNT),
            given)

        def conditional_max(tables):
            states, vals = all_state_values(tables)
            mask = np.ones(len(states), dtype=bool)
            for d, k in given.items():
                mask &= states[:, d] == k
            return vals[mask].max()

        def check(tables, y):
            assert all(y[d] == k for d, k in given.items())
            assert evaluate_potential(tables, y) == pytest.approx(
                conditional_max(tables), abs=1e-9)

        perturbed = p.with_unary(p.unary + z)
        for solver in solvers:
            y = _map_labels(clamp_variables(perturbed, given), solver)
            check(perturbed, y)
            labels = _perturbed_map_batch(pinned, znoise, solver)
            for m, y in enumerate(labels):
                check(p.with_unary(p.unary + znoise[m]), y)
