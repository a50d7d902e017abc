"""Exact MAP for supermodular binary pairwise potentials via s-t min-cut.

The cut network minimizes E(y) = -f(y).  Each pairwise table is split into
terminal capacities plus one non-negative arc with capacity
p(0,0) + p(1,1) - p(0,1) - p(1,0); the accumulated constant is tracked so
reported MAP values match direct evaluation.  After a solve the source
side of the cut gets label 0 (free nodes included).

States support in-place unary updates with search-tree reuse: a re-solve
after updates returns exactly what a from-scratch solve would.  A state
builds its network with numpy once, then keeps the max-flow state as
Python lists that the BK kernel mutates in place: on the many small warm
re-solves of clamped training, converting arrays to lists and back on
every solve cost more than the flow work.  Python floats are IEEE
doubles, so the lists hold exactly the values the arrays held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bk import NODE_NONE, bk_maxflow
from .errors import PreconditionError, StructuralError
from .model import CompiledPotentials, PairwiseModel, evaluate_potential

SUPERMODULAR_TOL = 1e-12


class DynamicCutState:
    """Flow network plus search-tree bookkeeping, retained between solves.

    Single-owner mutable: confine one state to one worker at a time.
    """

    def __init__(self, potentials: CompiledPotentials):
        model = potentials.model
        if not model.is_binary:
            raise PreconditionError("cut solver requires binary labels")
        unary = np.array(potentials.unary[:, :2], dtype=np.float64)
        pairwise = np.array(potentials.pairwise[:, :2, :2], dtype=np.float64)
        self.model = model
        self.unary = unary
        ea = model.edge_array()
        n = model.num_vars
        e = model.num_edges

        gap = np.zeros(e)
        if e:
            gap = (pairwise[:, 0, 0] + pairwise[:, 1, 1]
                   - pairwise[:, 0, 1] - pairwise[:, 1, 0])
            worst = float(gap.min()) if e else 0.0
            if worst < -SUPERMODULAR_TOL:
                bad = int(np.argmin(gap))
                raise PreconditionError(
                    f"edge {model.edges[bad]} violates supermodularity by "
                    f"{-worst:.3e}")
        lam = np.maximum(gap, 0.0)

        # energies E = -f; pairwise decomposed into unary shifts + one arc
        e0 = -unary[:, 0].copy()
        e1 = -unary[:, 1].copy()
        const = 0.0
        if e:
            ea_a = -pairwise[:, 0, 0]
            ea_c = -pairwise[:, 1, 0]
            ea_d = -pairwise[:, 1, 1]
            np.add.at(e1, ea[:, 0], ea_c - ea_a)
            np.add.at(e1, ea[:, 1], ea_d - ea_c)
            const += float(ea_a.sum())
        shift = np.minimum(e0, e1)
        const += float(shift.sum())

        m = 2 * e
        head = np.zeros(m, dtype=np.int64)
        nxt = np.full(m, -1, dtype=np.int64)
        first = np.full(n, -1, dtype=np.int64)
        rcap = np.zeros(m, dtype=np.float64)
        if e:
            head[0::2] = ea[:, 1]
            head[1::2] = ea[:, 0]
            rcap[0::2] = lam
            tails = np.empty(m, dtype=np.int64)
            tails[0::2] = ea[:, 0]
            tails[1::2] = ea[:, 1]
            order = np.argsort(tails, kind="stable")
            st = tails[order]
            same = st[:-1] == st[1:]
            nxt[order[:-1][same]] = order[1:][same]
            starts = np.ones(m, dtype=bool)
            starts[1:] = ~same
            first[st[starts]] = order[starts]

        # the BK state, as lists (see the module docstring)
        self.first = first.tolist()
        self.head = head.tolist()
        self.nxt = nxt.tolist()
        self.rcap = rcap.tolist()
        self.trcap = (e1 - e0).tolist()
        self.parent = [NODE_NONE] * n
        self.is_sink = [0] * n
        self.dist = [0] * n
        self.ts = [0] * n
        self.const = const
        self.flow = 0.0
        self.time = 0
        self.solved = False
        self._marked: set[int] = set()
        self.last_augmentations = 0
        # evaluates the current tables: update_unary writes self.unary
        # in place
        self._potentials = CompiledPotentials(model, unary, pairwise)

    # -- mutation ----------------------------------------------------------

    def update_unary(self, d: int, new_u) -> None:
        """Replace variable d's unary table; terminal capacities are
        reparameterized in place and the node is marked for tree repair.
        ``new_u`` is any pair of numbers; a list row is cheapest."""
        if not 0 <= d < self.model.num_vars:
            raise StructuralError(f"variable index {d} out of range")
        nu0, nu1 = float(new_u[0]), float(new_u[1])
        unary = self.unary
        de0 = unary.item(d, 0) - nu0  # energy deltas (E = -u)
        de1 = unary.item(d, 1) - nu1
        tr = self.trcap[d]
        rs = (tr if tr > 0.0 else 0.0) + de1
        rt = (-tr if tr < 0.0 else 0.0) + de0
        low = min(rs, rt)
        if low < 0.0:
            # lift both terminal arcs: every cut grows by -low, so the
            # tracked constant absorbs it
            rs -= low
            rt -= low
            self.const += low
        m = min(rs, rt)
        self.const += m
        self.trcap[d] = rs - rt
        unary[d, 0] = nu0
        unary[d, 1] = nu1
        self._marked.add(d)

    # -- solving -----------------------------------------------------------

    def solve(self) -> tuple[np.ndarray, float]:
        """MAP labeling and its value (value computed by direct table
        evaluation, so it matches evaluate_potential bit for bit)."""
        warm = self.solved
        added, n_aug, t = bk_maxflow(
            self.first, self.head, self.nxt, self.rcap, self.trcap,
            self.parent, self.is_sink, self.dist, self.ts, self.time,
            sorted(self._marked) if warm else [], warm)
        self.flow += added
        self.time = t
        self.solved = True
        self._marked.clear()
        self.last_augmentations = n_aug
        # sink-tree nodes get label 1; free nodes keep a stale is_sink
        labels = np.array([s if p != NODE_NONE else 0
                           for p, s in zip(self.parent, self.is_sink)],
                          dtype=np.int64)
        return labels, evaluate_potential(self._potentials, labels)


def build_cut_problem(p: CompiledPotentials) -> DynamicCutState:
    return DynamicCutState(p)


# ---------------------------------------------------------------------------
# Clamping (conditioning on fixed labels)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClampedProblem:
    """A reduced problem over the unclamped variables.

    max over the reduced problem plus ``offset`` equals max of f over
    labelings with the given variables fixed.
    """

    potentials: CompiledPotentials
    offset: float
    kept: np.ndarray  # original indices of the remaining variables
    given: tuple[tuple[int, int], ...]  # (variable, label), ascending

    def complete(self, y_reduced: np.ndarray) -> np.ndarray:
        """Lift a reduced labeling back to the full variable set."""
        d = len(self.kept) + len(self.given)
        full = np.zeros(d, dtype=np.int64)
        full[self.kept] = y_reduced
        for var, lab in self.given:
            full[var] = lab
        return full


def clamp_variables(p: CompiledPotentials,
                    given: dict[int, int]) -> ClampedProblem:
    """Fix ``given`` variables, folding their pairwise interactions into the
    neighbors' unary tables and tracking the constant."""
    model = p.model
    for d, k in given.items():
        if not 0 <= d < model.num_vars:
            raise StructuralError(f"variable index {d} out of range")
        if not 0 <= k < model.label_counts[d]:
            raise StructuralError(f"label {k} out of range at variable {d}")
    if len(given) >= model.num_vars:
        raise StructuralError("cannot clamp every variable")

    kept = np.array([d for d in range(model.num_vars) if d not in given],
                    dtype=np.int64)
    new_index = {int(old): i for i, old in enumerate(kept)}
    new_counts = tuple(model.label_counts[int(d)] for d in kept)
    kmax = max(new_counts)

    offset = 0.0
    for d in sorted(given):
        offset += float(p.unary[d, given[d]])

    unary = np.zeros((len(kept), kmax))
    for i, old in enumerate(kept):
        kd = model.label_counts[int(old)]
        unary[i, :kd] = p.unary[old, :kd]

    folded_edges: list[tuple[int, int, np.ndarray]] = []
    for e, (i, j) in enumerate(model.edges):
        gi, gj = i in given, j in given
        if gi and gj:
            offset += float(p.pairwise[e, given[i], given[j]])
        elif gi:
            nj = new_index[j]
            kd = model.label_counts[j]
            unary[nj, :kd] += p.pairwise[e, given[i], :kd]
        elif gj:
            ni = new_index[i]
            kd = model.label_counts[i]
            unary[ni, :kd] += p.pairwise[e, :kd, given[j]]
        else:
            folded_edges.append((new_index[i], new_index[j], p.pairwise[e]))

    if model.structure_kind == "chain" and len(kept) >= 1:
        # keep a chain: bridge removed interior variables with zero tables
        tables = {(i, j): tab for i, j, tab in folded_edges}
        pairwise = np.zeros((len(kept) - 1, kmax, kmax))
        for t in range(len(kept) - 1):
            tab = tables.get((t, t + 1))
            if tab is not None:
                ki, kj = new_counts[t], new_counts[t + 1]
                pairwise[t, :ki, :kj] = tab[:ki, :kj]
        new_model = PairwiseModel(len(kept), new_counts,
                                  tuple((t, t + 1) for t in range(len(kept) - 1)),
                                  structure_kind="chain")
    else:
        folded_edges.sort(key=lambda t: (t[0], t[1]))
        pairwise = np.zeros((len(folded_edges), kmax, kmax))
        for idx, (i, j, tab) in enumerate(folded_edges):
            ki, kj = new_counts[i], new_counts[j]
            pairwise[idx, :ki, :kj] = tab[:ki, :kj]
        new_model = PairwiseModel(
            len(kept), new_counts,
            tuple((i, j) for i, j, _ in folded_edges),
            structure_kind="general")

    reduced = CompiledPotentials(new_model, unary, pairwise)
    return ClampedProblem(reduced, offset, kept,
                          tuple(sorted((d, k) for d, k in given.items())))


def clamp_variable(p: CompiledPotentials, d: int, k: int) -> ClampedProblem:
    """Condition on y_d = k: a reduced problem on D-1 variables."""
    return clamp_variables(p, {d: k})
