"""Exact MAP for supermodular binary pairwise potentials via s-t min-cut.

The cut network minimizes E(y) = -f(y).  Each pairwise table is split into
terminal capacities plus one non-negative arc with capacity
p(0,0) + p(1,1) - p(0,1) - p(1,0); the accumulated constant is tracked so
reported MAP values match direct evaluation.  After a solve the source
side of the cut gets label 0 (free nodes included).

States support in-place unary updates with flow reuse: a re-solve after
updates returns exactly what a from-scratch solve would.  The labels are
the sink tree at termination, the nodes that can still reach the sink in
the final residual graph, and that set is the same for every maximum
flow, so any path to a maximum flow gives the same labels.  Which search
trees a re-solve starts from depends on the update:

* ``update_unary`` of a few rows (a training clamp's pin and unpin) keeps
  the trees and marks the row's node; the next solve repairs the trees
  around the marked nodes (Kohli & Torr, PAMI 2007).
* ``replace_unary`` of the whole table (one draw of counting marginals)
  keeps the flow but drops the trees before its row updates, so it marks
  no node; the next solve grows the trees afresh over the residual graph.
  With every node changed, repairing the old trees costs more than
  growing new ones, while the kept flow still saves most of the
  augmentations of a cold build.

A state builds its network with numpy once, then keeps the max-flow state
as Python lists that the BK kernel mutates in place: on the many small
warm re-solves of clamped training, converting arrays to lists and back
on every solve cost more than the flow work.  The state's unary and
pairwise tables are lists too: ``update_unary`` rewrites a unary row in
place, and ``solve`` evaluates its labeling over those lists in the order
of ``evaluate_potential``.  Python floats are IEEE doubles, so the lists
hold exactly the values the arrays held and the values match bit for bit.

Clamping is one mechanism for every solver: ``clamp_variables`` raises
u_d(k) by a margin that provably pins y_d = k and keeps the model, so a
clamped problem is the same graph (and, for a retained state, one
``update_unary``) rather than a smaller model to re-index.
"""

from __future__ import annotations

import numpy as np

from ._bk import NODE_NONE, bk_maxflow
from .errors import PreconditionError, StructuralError
from .model import CompiledPotentials

SUPERMODULAR_TOL = 1e-12


class DynamicCutState:
    """Flow network plus search-tree bookkeeping, retained between solves.

    Single-owner mutable: confine one state to one worker at a time.
    """

    # overflow in the network arithmetic is refused below, not warned about
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, potentials: CompiledPotentials):
        model = potentials.model
        if not model.is_binary:
            raise PreconditionError("cut solver requires binary labels")
        unary = np.asarray(potentials.unary, dtype=np.float64)
        pairwise = np.asarray(potentials.pairwise, dtype=np.float64)
        self.model = model
        ea = model.edge_array()
        n = model.num_vars
        e = model.num_edges

        gap = np.zeros(e)
        if e:
            gap = (pairwise[:, 0, 0] + pairwise[:, 1, 1]
                   - pairwise[:, 0, 1] - pairwise[:, 1, 0])
            worst = float(gap.min())
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
        trcap = e1 - e0
        if not (np.isfinite(const) and np.isfinite(lam).all()
                and np.isfinite(trcap).all()):
            raise PreconditionError(
                "cut network overflows: its constant or a capacity is not "
                "finite")

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
        self.trcap = trcap.tolist()
        self.parent = [NODE_NONE] * n
        self.is_sink = [0] * n
        self.dist = [0] * n
        self.ts = [0] * n
        self.const = const
        self.flow = 0.0
        self.time = 0
        # True while the trees of the last solve are kept: the next solve
        # repairs them around the marked nodes instead of growing new ones
        self.solved = False
        self._marked: set[int] = set()
        self.last_augmentations = 0
        # the tables solve() evaluates: u_d(k) at 2d + k of one list, and
        # p_e(k, l) at 2k + l of edge e's row (nested rows per label
        # would triple the objects the garbage collector tracks)
        self.unary = unary.ravel().tolist()
        self.pairwise = pairwise.reshape(e, 4).tolist()

    # -- mutation ----------------------------------------------------------

    def update_unary(self, d: int, new_u) -> None:
        """Replace variable d's unary table; terminal capacities are
        reparameterized in place and, while the trees of the last solve
        are kept, the node is marked for tree repair.
        An unchanged row changes nothing and needs no repair, so it
        returns at once.  ``new_u`` is any pair of numbers; a list row is
        cheapest."""
        trcap = self.trcap
        if not 0 <= d < len(trcap):
            raise StructuralError(f"variable index {d} out of range")
        nu0, nu1 = float(new_u[0]), float(new_u[1])
        unary = self.unary
        k = 2 * d
        u0, u1 = unary[k], unary[k + 1]
        if u0 == nu0 and u1 == nu1:
            return
        de0 = u0 - nu0  # energy deltas (E = -u)
        de1 = u1 - nu1
        tr = trcap[d]
        rs = (tr if tr > 0.0 else 0.0) + de1
        rt = (-tr if tr < 0.0 else 0.0) + de0
        const = self.const
        # min(rs, rt), which returns rs on a tie
        low = rt if rt < rs else rs
        if low < 0.0:
            # lift both terminal arcs: every cut grows by -low, so the
            # tracked constant absorbs it
            rs -= low
            rt -= low
            const += low
        self.const = const + (rt if rt < rs else rs)
        trcap[d] = rs - rt
        unary[k] = nu0
        unary[k + 1] = nu1
        if self.solved:
            self._marked.add(d)

    def replace_unary(self, table) -> None:
        """Replace the whole (D, 2) unary table: ``update_unary`` row by
        row, so the flow stays feasible, then drop the search trees.  The
        next solve grows fresh trees over the kept residual graph instead
        of repairing the old ones around every node (see the module
        docstring)."""
        rows = np.asarray(table, dtype=np.float64)
        if rows.shape != (self.model.num_vars, 2):
            raise StructuralError(
                f"unary table of shape {rows.shape} for "
                f"{self.model.num_vars} binary variables")
        # dropped first, so update_unary marks no node for a repair that
        # the next, tree-cold solve would not make
        self.solved = False
        update = self.update_unary
        for d, row in enumerate(rows.tolist()):
            update(d, row)

    # -- solving -----------------------------------------------------------

    def solve(self) -> tuple[np.ndarray, float]:
        """MAP labeling and its value, evaluated over the state's tables in
        the order of evaluate_potential, so the two match bit for bit.

        The library reads only the labels and evaluates a value where it
        needs one.  The value stays only for the benchmark, whose workload
        unpacks ``(labels, value)``, until the benchmark re-baseline
        (ROADMAP item 1) re-points it; then ``solve`` can return labels
        alone."""
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
        labels = [s if p != NODE_NONE else 0
                  for p, s in zip(self.parent, self.is_sink)]
        unary, pairwise = self.unary, self.pairwise
        value = 0.0
        for d, y in enumerate(labels):
            value += unary[2 * d + y]
        for table, (i, j) in zip(pairwise, self.model.edges):
            value += table[2 * labels[i] + labels[j]]
        return np.array(labels, dtype=np.int64), value


def build_cut_problem(p: CompiledPotentials) -> DynamicCutState:
    return DynamicCutState(p)


# ---------------------------------------------------------------------------
# Clamping (conditioning on fixed labels)
# ---------------------------------------------------------------------------


def pin_margins(p: CompiledPotentials) -> np.ndarray:
    """(D,) unary raises that each pin a variable to any one label.

    margin[d] is the range of u_d over the labels, plus, for every
    incident edge, the largest change of the pairwise term as y_d varies
    with the other endpoint held, plus 1.  Moving y_d to k then raises f
    by at least 1 whatever the other labels are, once u_d(k) is raised by
    margin[d]: every maximizer takes y_d = k, whichever variables are
    pinned with it.
    """
    u = p.unary
    margins = u.max(axis=1) - u.min(axis=1)
    if p.model.num_edges:
        ea = p.model.edge_array()
        pw = p.pairwise
        span_i = (pw.max(axis=1) - pw.min(axis=1)).max(axis=1)
        span_j = (pw.max(axis=2) - pw.min(axis=2)).max(axis=1)
        np.add.at(margins, ea[:, 0], span_i)
        np.add.at(margins, ea[:, 1], span_j)
    return margins + 1.0


def clamp_variables(p: CompiledPotentials,
                    given: dict[int, int]) -> CompiledPotentials:
    """Pin y_d = k for every (d, k) in ``given``: the same model, with
    u_d(k) raised by ``pin_margins(p)[d]``.

    Every maximizer of the result takes the given labels, and on labelings
    that do, f differs from the original by a constant, so the free labels
    are those of the conditional maximizer.  The graph is unchanged, which
    lets every solver (and a retained cut state) run the clamped problem
    as it is.  Evaluate values on the unpinned tables.
    """
    model = p.model
    for d, k in given.items():
        if not 0 <= d < model.num_vars:
            raise StructuralError(f"variable index {d} out of range")
        if not 0 <= k < model.num_labels:
            raise StructuralError(f"label {k} out of range at variable {d}")
    margins = pin_margins(p)
    unary = p.unary.copy()
    for d, k in given.items():
        unary[d, k] += margins[d]
    return p.with_unary(unary)
