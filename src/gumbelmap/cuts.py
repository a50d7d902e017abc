"""Exact MAP for supermodular binary pairwise potentials via s-t min-cut.

The cut network minimizes E(y) = -f(y).  Each pairwise table is split into
terminal capacities plus one non-negative arc with capacity
p(0,0) + p(1,1) - p(0,1) - p(1,0); the accumulated constant is tracked, so
a solve reads its MAP value from the flow accounting, -(constant + flow):
the terms of direct evaluation summed in another order, so equal to
``evaluate_potential`` up to rounding, not bit for bit.  After a solve the
source side of the cut gets label 0 (free nodes included).

States support in-place unary updates with flow reuse: a re-solve after
updates returns exactly what a from-scratch solve would.  An update that
would make the constant or a capacity not finite is refused, as a build
is (``PreconditionError``), before it writes anything.  The labels are
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

A tree-cold solve (a new state, or after ``replace_unary``) starts with
one sweep of two-arc pushes, source -> i -> j -> sink, over the state's
arc pairs, and wakes only the roots beside free nodes (see ``_bk``).
That cuts the interpreted growth and adoption passes of most of a
draw's augmentations.  The labels cannot move with it: they are read
from the final residual graph, which every maximum flow leaves with the
same sink side; only the flow, the trees and the augmentation counts
change.

Some pins need no solve at all.  ``flips_alone`` reads the residual
graph of the last solve and certifies, where it can, that pinning
variable d to the label it does not have changes d alone, so the pinned
maximizer is the last labeling with d flipped.  It writes nothing, and
proves nothing on a state with an update since its last solve.
Training's clamped solves on a retained state
(``gumbel._cut_clamped_map``) use it as a third exact acceleration,
after solve skipping and dynamic cuts.

A state builds its network with numpy once, then keeps the max-flow state
as Python lists that the BK kernel mutates in place: on the many small
warm re-solves of clamped training, converting arrays to lists and back
on every solve cost more than the flow work.  The state's unary table is
a list too, which ``update_unary`` compares and rewrites a row of in
place.  The arc layout (``first``, ``head``, ``nxt``, ``pairs``) depends
on the model alone and the kernel never writes it, so the states of one
model share the lists built for its first state (``_LAYOUTS``).  That
halves a 6x6 build (26 against 48-51 us, timeit on 2 shared cores) and
keeps about 0.4 MB of RSS alive on 32x32 marginals.

Clamping is one mechanism for every solver: ``clamp_variables`` raises
u_d(k) by a margin that provably pins y_d = k and keeps the model, so a
clamped problem is the same graph (and, for a retained state, one
``update_unary``) rather than a smaller model to re-index.
"""

from __future__ import annotations

import weakref
from math import isfinite

import numpy as np

from ._bk import NODE_NONE, bk_maxflow
from .errors import PreconditionError, StructuralError
from .model import CompiledPotentials, PairwiseModel

SUPERMODULAR_TOL = 1e-12
_OVERFLOW = "cut network overflows: its constant or a capacity is not finite"


def _arc_layout(model: PairwiseModel) -> tuple[list, list, list, list]:
    """The cut network's arcs as the BK kernel reads them: ``first`` arc
    of each node, ``head`` and ``nxt`` arc of each arc, and the (arc,
    tail, head) ``pairs`` of the even arcs.  Edge e gives arc 2e from its
    first endpoint to its second and the sister arc 2e + 1 back; each
    node's arcs are listed in arc order."""
    ea = model.edge_array()
    m = 2 * model.num_edges
    head = np.zeros(m, dtype=np.int64)
    nxt = np.full(m, -1, dtype=np.int64)
    first = np.full(model.num_vars, -1, dtype=np.int64)
    if m:
        head[0::2] = ea[:, 1]
        head[1::2] = ea[:, 0]
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
    head = head.tolist()
    # (a, tail, head) of each even arc, for the tree-cold push sweep
    pairs = list(zip(range(0, m, 2), head[1::2], head[0::2]))
    return first.tolist(), head, nxt.tolist(), pairs


# the arc layout of each model, built for its first cut state and shared
# by the later ones: the kernel never writes first, head, nxt or pairs,
# and a layout goes when its model does
_LAYOUTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
            raise PreconditionError(_OVERFLOW)

        # the BK state, as lists (see the module docstring); the arc
        # layout is the model's, shared read-only with its other states
        layout = _LAYOUTS.get(model)
        if layout is None:
            layout = _LAYOUTS[model] = _arc_layout(model)
        self.first, self.head, self.nxt, self.pairs = layout
        rcap = [0.0] * (2 * e)
        rcap[0::2] = lam.tolist()
        self.rcap = rcap
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
        # the unary table update_unary compares and rewrites: u_d(k) at
        # 2d + k of one list (nested rows per label would triple the
        # objects the garbage collector tracks)
        self.unary = unary.ravel().tolist()

    # -- mutation ----------------------------------------------------------

    def update_unary(self, d: int, new_u) -> None:
        """Replace variable d's unary table; terminal capacities are
        reparameterized in place and, while the trees of the last solve
        are kept, the node is marked for tree repair.
        An unchanged row changes nothing and needs no repair, so it
        returns at once.  ``new_u`` is any pair of numbers; a list row is
        cheapest.  A row that makes its terminal capacity or the constant
        not finite (NaN, infinite or overflowing) is refused as
        ``__init__`` refuses it, before anything is written."""
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
        const += rt if rt < rs else rs
        cap = rs - rt
        if not (isfinite(cap) and isfinite(const)):
            raise PreconditionError(_OVERFLOW)
        self.const = const
        trcap[d] = cap
        unary[k] = nu0
        unary[k + 1] = nu1
        if self.solved:
            self._marked.add(d)

    def replace_unary(self, table) -> None:
        """Replace the whole (D, 2) unary table: ``update_unary`` row by
        row, so the flow stays feasible, then drop the search trees.  The
        next solve grows fresh trees over the kept residual graph instead
        of repairing the old ones around every node (see the module
        docstring).  A NaN or infinite entry is refused before the state
        is touched; a finite row that overflows, by its ``update_unary``,
        after which the rows written before it are restored: a refused
        replacement leaves the state as it was."""
        rows = np.asarray(table, dtype=np.float64)
        if rows.shape != (self.model.num_vars, 2):
            raise StructuralError(
                f"unary table of shape {rows.shape} for "
                f"{self.model.num_vars} binary variables")
        if not np.isfinite(rows).all():
            raise PreconditionError(_OVERFLOW)
        saved = (self.trcap.copy(), self.unary.copy(), self.const, self.solved)
        # dropped first, so update_unary marks no node for a repair that
        # the next, tree-cold solve would not make
        self.solved = False
        update = self.update_unary
        try:
            for d, row in enumerate(rows.tolist()):
                update(d, row)
        except PreconditionError:
            # in place: the lists are the ones the kernel mutates
            self.trcap[:], self.unary[:], self.const, self.solved = saved
            raise

    # -- solving -----------------------------------------------------------

    def solve(self) -> tuple[np.ndarray, float]:
        """MAP labeling and its value, read from the flow accounting:
        -(const + flow), the min-cut energy negated, which equals
        evaluate_potential on the current tables up to rounding.  The
        labels are the kernel's ``is_sink`` list: sink-tree nodes have 1,
        and a free node keeps is_sink 0 (see ``_bk``), so the source side
        of the cut, free nodes included, gets label 0.

        The library reads only the labels and evaluates a value where it
        needs one.  The value stays only for the benchmark, whose workload
        unpacks ``(labels, value)``, until the benchmark re-baseline
        (ROADMAP item 1) re-points it; then ``solve`` can return labels
        alone."""
        warm = self.solved
        added, n_aug, t = bk_maxflow(
            self.first, self.head, self.nxt, self.pairs, self.rcap,
            self.trcap, self.parent, self.is_sink, self.dist, self.ts,
            self.time,
            sorted(self._marked) if warm else [], warm)
        self.flow += added
        self.time = t
        self.solved = True
        self._marked.clear()
        self.last_augmentations = n_aug
        # sink-tree nodes get label 1, and free nodes keep is_sink 0
        return (np.array(self.is_sink, dtype=np.int64),
                -(self.const + self.flow))

    def flips_alone(self, d: int) -> bool:
        """True when the residual graph of the last solve proves that
        pinning variable d to the label it does not have changes d alone:
        the pinned maximizer is the last solve's labeling with d flipped.
        False, proving nothing, when the state is unsolved or has an
        update since its last solve.  An index out of range is refused
        (``StructuralError``), as ``update_unary`` refuses it.

        The labels are the minimal sink set of a minimum cut, which a pin
        toward the sink can only grow, and a pin toward the source only
        shrink.  Pinned to 1, a label-0 d joins it
        alone when the flow s -> x -> d can saturate every residual arc
        into d from a label-0 neighbour x, each on x's own source
        residual: no source-side node then reaches the sink.  Pinned to
        0, a label-1 d leaves it alone when every label-1 neighbour x
        that a residual arc joins to d keeps sink residual after taking
        d's outflow d -> x -> t (strictly): every node whose path to the
        sink ran through d still reaches it through that neighbour."""
        is_sink, trcap, rcap = self.is_sink, self.trcap, self.rcap
        if not 0 <= d < len(is_sink):
            raise StructuralError(f"variable index {d} out of range")
        if not self.solved or self._marked:
            return False
        head, nxt = self.head, self.nxt
        a = self.first[d]
        if is_sink[d]:
            while a != -1:
                x = head[a]
                if (is_sink[x] and (rcap[a] > 0.0 or rcap[a ^ 1] > 0.0)
                        and not -trcap[x] > rcap[a]):
                    return False
                a = nxt[a]
        else:
            while a != -1:
                x = head[a]
                if not is_sink[x] and trcap[x] < rcap[a ^ 1]:
                    return False
                a = nxt[a]
        return True


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
    pinned with it.  Once a pinned entry |u_d(k)| + margin[d] can reach
    2^52, doubles there are spaced by 1 or more and the + 1 can be
    rounded away, so such tables are refused (``StructuralError``).
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
    margins += 1.0
    top = np.abs(u).max() + margins.max()
    if not top < 2.0 ** 52:
        raise StructuralError(
            f"a pinned table entry can reach {top:.3g} >= 2^52, where the "
            f"+ 1 of a pin margin can be rounded away")
    return margins


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
