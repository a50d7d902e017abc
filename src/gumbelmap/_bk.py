"""Augmenting-path max-flow kernel with reusable search trees.

Grow/augment/adopt scheme over two search trees rooted at the terminals
(Boykov & Kolmogorov, TPAMI 2004).  The state (residuals, trees,
timestamps) lives in flat Python lists owned by the caller, so it
survives between solves.  A solve starts its trees one of two ways, over
whatever flow the residuals already hold:

* ``warm`` repairs the previous trees around explicitly marked nodes
  (Kohli & Torr, PAMI 2007): cheap when few terminal capacities changed,
  as for a training clamp's pin and unpin;
* otherwise the trees grow from scratch (tree-cold).  On a new network
  that is a cold solve; after every terminal capacity changed (a new
  unary table) it is cheaper than a repair around every node, and the
  kept flow still saves most of the augmentations.  A tree-cold solve
  first makes one sweep over the arc pairs: where one end has source
  residual, the other sink residual and the arc between them residual
  capacity, it pushes the least of the three along s -> i -> j -> t,
  counted as one augmentation.  A terminal residual only shrinks and
  never changes sign, so after the sweep no arc with residual joins a
  source root to a sink root.  Every node with terminal residual is then
  a root, but only a root with residual toward a free node starts
  active: the others have nothing to grow into until a neighbour goes
  free, and adoption wakes them then, as it wakes any passive node.

Either way the sink tree at termination is the set of nodes that can
reach the sink in the final residual graph, the same for every maximum
flow, so both starts give the same cut, whatever the flow they reach it
by: the sweep moves the flow, the trees and the augmentation counts,
never the labels.

The kernel is interpreted Python and reads or writes single elements
all the time.  On a numpy array each such access boxes a numpy scalar,
several times the cost of indexing a list, and converting arrays to
lists and back on every solve costs more than the flow work of a small
warm re-solve.  So the caller builds the state once as lists and
``bk_maxflow`` mutates them in place.  This is exact: Python floats are
IEEE doubles like numpy float64 scalars, the same operations run in the
same order, and the integer fields (arc indices, distances, timestamps)
stay far below 2**63.  Trees, augmentations, labels and flow are
bit-identical to a run over numpy arrays.

Arc storage: arcs come in sister pairs at indices (2k, 2k+1), so
``sister(a) == a ^ 1``.  ``trcap[i] > 0`` is residual capacity from the
source to node i; ``trcap[i] < 0`` is residual capacity from i to the sink.

parent[i] codes: >= 0 arc from i to its parent, NODE_NONE free,
NODE_TERM tree root, NODE_ORPH queued orphan (transient).  A free node
has ``is_sink`` 0: the tree-cold start gives it 0 and adoption resets it
when it frees a node, so once a solve ends, with no orphan left,
``is_sink`` is the labeling.

One code path serves both trees.  With ``s = is_sink[i]`` (0 source,
1 sink), BK's ``tree_cap(i -> head[a])`` is ``rcap[a ^ s]``: the arc
itself in the source tree, its sister in the sink tree.  Growth, warm
root repair and adoption each exist once.  Active nodes and orphans
wait in FIFO ``deque``s; a ``queued`` flag keeps a node in the active
queue at most once, and a stale orphan entry is skipped at pop because
its ``parent`` is no longer ``NODE_ORPH``.  A per-tree copy of a stage
scans the same arcs in the same order, so the shared stages give the
same trees, augmentation counts, flows and labels.  ``_augment`` keeps
its two halves: they walk toward opposite terminals with opposite
signs, and one loop over a tree flag would add arithmetic to the
hottest walk.
"""

from __future__ import annotations

from collections import deque

NODE_NONE = -1
NODE_TERM = -2
NODE_ORPH = -3

_INF_D = 1 << 60


def _augment(a, head, rcap, trcap, parent, orphans):
    """Push the bottleneck along source-root .. a .. sink-root; saturated
    parent arcs orphan their child node."""
    bottleneck = rcap[a]
    k = head[a ^ 1]
    while parent[k] != NODE_TERM:
        pa = parent[k]
        r = rcap[pa ^ 1]
        if r < bottleneck:
            bottleneck = r
        k = head[pa]
    if trcap[k] < bottleneck:
        bottleneck = trcap[k]
    k = head[a]
    while parent[k] != NODE_TERM:
        pa = parent[k]
        r = rcap[pa]
        if r < bottleneck:
            bottleneck = r
        k = head[pa]
    if -trcap[k] < bottleneck:
        bottleneck = -trcap[k]

    rcap[a ^ 1] += bottleneck
    rcap[a] -= bottleneck
    k = head[a ^ 1]
    while parent[k] != NODE_TERM:
        pa = parent[k]
        rcap[pa] += bottleneck
        rcap[pa ^ 1] -= bottleneck
        nk = head[pa]
        if rcap[pa ^ 1] == 0.0:
            parent[k] = NODE_ORPH
            orphans.append(k)
        k = nk
    trcap[k] -= bottleneck
    if trcap[k] == 0.0:
        parent[k] = NODE_ORPH
        orphans.append(k)
    k = head[a]
    while parent[k] != NODE_TERM:
        pa = parent[k]
        rcap[pa ^ 1] += bottleneck
        rcap[pa] -= bottleneck
        nk = head[pa]
        if rcap[pa] == 0.0:
            parent[k] = NODE_ORPH
            orphans.append(k)
        k = nk
    trcap[k] += bottleneck
    if trcap[k] == 0.0:
        parent[k] = NODE_ORPH
        orphans.append(k)
    return bottleneck


def _adopt(orphans, first, head, nxt, rcap, trcap, parent, is_sink, dist,
           ts, time, active, queued):
    """Empty the orphan queue.  Each orphan re-attaches inside its own
    tree if it can; otherwise it goes free, orphaning its children and
    re-activating potential adopters."""
    while orphans:
        i = orphans.popleft()
        if parent[i] != NODE_ORPH:
            continue  # stale entry: re-rooted since it was queued
        tree = is_sink[i]
        flip = 1 ^ tree  # rcap[a ^ flip]: residual from head[a] into i
        best_arc = -1
        best_d = _INF_D
        a = first[i]
        while a != -1:
            if rcap[a ^ flip] > 0.0:
                j = head[a]
                if parent[j] != NODE_NONE and is_sink[j] == tree:
                    # walk to the root, checking the candidate's origin
                    d = 0
                    k = j
                    valid = True
                    while True:
                        if ts[k] == time:
                            d += dist[k]
                            break
                        pa = parent[k]
                        d += 1
                        if pa == NODE_TERM:
                            ts[k] = time
                            dist[k] = 1
                            break
                        if pa == NODE_ORPH or pa == NODE_NONE:
                            valid = False
                            break
                        k = head[pa]
                    if valid:
                        if d < best_d:
                            best_d = d
                            best_arc = a
                        # mark the walked path with distances to the root
                        k = j
                        dd = d
                        while ts[k] != time:
                            ts[k] = time
                            dist[k] = dd
                            dd -= 1
                            k = head[parent[k]]
            a = nxt[a]
        if best_arc != -1:
            parent[i] = best_arc
            ts[i] = time
            dist[i] = best_d + 1
        elif trcap[i] < 0.0 if tree else trcap[i] > 0.0:
            # warm solves can leave interior nodes with terminal residual:
            # such an orphan re-roots at its terminal instead of going free
            parent[i] = NODE_TERM
            ts[i] = time
            dist[i] = 1
            if not queued[i]:
                queued[i] = True
                active.append(i)
        else:
            # no parent found: i leaves the tree
            is_sink[i] = 0
            a = first[i]
            while a != -1:
                j = head[a]
                if parent[j] != NODE_NONE and is_sink[j] == tree:
                    if rcap[a ^ flip] > 0.0 and not queued[j]:
                        queued[j] = True
                        active.append(j)
                    pj = parent[j]
                    if pj >= 0 and head[pj] == i:
                        parent[j] = NODE_ORPH
                        orphans.append(j)
                a = nxt[a]
            parent[i] = NODE_NONE


def bk_maxflow(first, head, nxt, pairs, rcap, trcap, parent, is_sink, dist,
               ts, time0, marked, warm):
    """Run max-flow to completion.  Returns (flow pushed, augmentations,
    new timestamp).  With ``warm`` the existing trees are kept and repaired
    around the ``marked`` nodes (a sorted list of the nodes whose terminal
    capacities changed); without it the trees grow afresh, keeping the
    flow the residuals hold, after the sweep of s -> i -> j -> t pushes
    over ``pairs``, the (arc, tail, head) of every even arc (see the
    module docstring).

    Every state argument is a list; ``rcap``, ``trcap``, ``parent``,
    ``is_sink``, ``dist`` and ``ts`` are updated in place."""
    n = len(first)
    active = deque()
    queued = [False] * n
    orphans = deque()
    time = time0
    flow_added = 0.0
    n_aug = 0

    if not warm:
        # one sweep of s -> i -> j -> t pushes over the arc pairs, each
        # counted as an augmentation; a terminal residual never changes
        # sign, so afterwards no arc with residual joins a node with
        # source residual to one with sink residual
        for a, i, j in pairs:
            ti = trcap[i]
            if ti == 0.0:
                continue
            tj = trcap[j]
            if ti > 0.0:
                if tj >= 0.0:
                    continue
            elif tj > 0.0:
                a += 1  # the sister arc, j -> i
                i, j, ti, tj = j, i, tj, ti
            else:
                continue
            r = rcap[a]
            if r > 0.0:
                m = r
                if ti < m:
                    m = ti
                if -tj < m:
                    m = -tj
                rcap[a] = r - m
                rcap[a ^ 1] += m
                trcap[i] = ti - m
                trcap[j] = tj + m
                flow_added += m
                n_aug += 1
        # nodes with terminal residual are roots; the others are free
        parent[:] = [NODE_NONE if t == 0.0 else NODE_TERM for t in trcap]
        is_sink[:] = [1 if t < 0.0 else 0 for t in trcap]
        ts[:] = [time] * n
        dist[:] = [1] * n
        # a root is active only with tree-direction residual into a free
        # node: it has nothing else to grow into, and _adopt wakes the
        # others when a neighbour goes free
        for j, t in enumerate(trcap):
            if t == 0.0:
                a = first[j]
                while a != -1:
                    i = head[a]
                    if (parent[i] == NODE_TERM and not queued[i]
                            and rcap[a ^ 1 ^ is_sink[i]] > 0.0):
                        queued[i] = True
                        active.append(i)
                    a = nxt[a]
    else:
        # a fresh timestamp: nodes stamped by the previous solve's last
        # stage must not pass as already checked during this repair
        time += 1
        for i in marked:
            if not queued[i]:
                queued[i] = True
                active.append(i)
            if trcap[i] == 0.0:
                if parent[i] != NODE_NONE and parent[i] != NODE_ORPH:
                    parent[i] = NODE_ORPH
                    orphans.append(i)
                continue
            s = 0 if trcap[i] > 0.0 else 1
            if parent[i] == NODE_NONE or is_sink[i] != s:
                # i becomes a root of tree s; its children (in either
                # tree) lose their path through it and must re-attach,
                # and neighbours of the other tree it can reach become
                # active
                is_sink[i] = s
                a = first[i]
                while a != -1:
                    j = head[a]
                    if parent[j] == (a ^ 1):
                        parent[j] = NODE_ORPH
                        orphans.append(j)
                    if (parent[j] != NODE_NONE and is_sink[j] != s
                            and rcap[a ^ s] > 0.0 and not queued[j]):
                        queued[j] = True
                        active.append(j)
                    a = nxt[a]
                parent[i] = NODE_TERM
                ts[i] = time
                dist[i] = 1
            # an already queued orphan stays queued: adoption will
            # re-root it at the terminal if nothing better is found
        _adopt(orphans, first, head, nxt, rcap, trcap, parent, is_sink,
               dist, ts, time, active, queued)

    cur = -1
    while True:
        i = cur
        cur = -1
        if i == -1 or parent[i] == NODE_NONE:
            i = -1
            while active:
                i = active.popleft()
                queued[i] = False
                if parent[i] != NODE_NONE:
                    break
                i = -1
            if i == -1:
                break
        # grow tree s from i; rcap[a ^ s] is BK's tree_cap(i -> head[a])
        s = is_sink[i]
        found = -1
        a = first[i]
        while a != -1:
            if rcap[a ^ s] > 0.0:
                j = head[a]
                if parent[j] == NODE_NONE:
                    is_sink[j] = s
                    parent[j] = a ^ 1
                    ts[j] = ts[i]
                    dist[j] = dist[i] + 1
                    if not queued[j]:
                        queued[j] = True
                        active.append(j)
                elif is_sink[j] != s:
                    found = a ^ s  # the source-to-sink direction
                    break
                elif ts[j] <= ts[i] and dist[j] > dist[i]:
                    # shorter path to the root: re-parent
                    parent[j] = a ^ 1
                    ts[j] = ts[i]
                    dist[j] = dist[i] + 1
            a = nxt[a]
        time += 1
        if found != -1:
            cur = i  # keep growing from i after the augmentation
            flow_added += _augment(found, head, rcap, trcap, parent, orphans)
            n_aug += 1
            _adopt(orphans, first, head, nxt, rcap, trcap, parent, is_sink,
                   dist, ts, time, active, queued)
    return flow_added, n_aug, time
