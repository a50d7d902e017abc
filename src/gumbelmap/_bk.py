"""Augmenting-path max-flow kernel with reusable search trees.

Grow/augment/adopt scheme over two search trees rooted at the terminals
(Boykov & Kolmogorov, TPAMI 2004).  The state (residuals, trees,
timestamps) lives in flat Python lists owned by the caller, so it
survives between solves; a warm solve repairs the trees around
explicitly marked nodes instead of rebuilding them (Kohli & Torr, PAMI
2007).

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
NODE_TERM tree root, NODE_ORPH queued orphan (transient).
"""

from __future__ import annotations

NODE_NONE = -1
NODE_TERM = -2
NODE_ORPH = -3

_INF_D = 1 << 60


def _q_push(qnext, qstate, i):
    # in-list marker: qnext[i] != -1 (tail points to itself)
    if qnext[i] == -1:
        if qstate[1] == -1:
            qstate[0] = i
        else:
            qnext[qstate[1]] = i
        qstate[1] = i
        qnext[i] = i


def _q_pop(qnext, qstate):
    i = qstate[0]
    if i == -1:
        return -1
    nx = qnext[i]
    if nx == i:
        qstate[0] = -1
        qstate[1] = -1
    else:
        qstate[0] = nx
    qnext[i] = -1
    return i


def _o_push(obuf, ostate, parent, i):
    parent[i] = NODE_ORPH
    cap = len(obuf)
    obuf[ostate[1]] = i
    ostate[1] = (ostate[1] + 1) % cap
    if ostate[1] == ostate[0]:
        raise RuntimeError("orphan queue overflow")


def _o_pop(obuf, ostate):
    if ostate[0] == ostate[1]:
        return -1
    i = obuf[ostate[0]]
    ostate[0] = (ostate[0] + 1) % len(obuf)
    return i


def _augment(a, head, rcap, trcap, parent, obuf, ostate):
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
            _o_push(obuf, ostate, parent, k)
        k = nk
    trcap[k] -= bottleneck
    if trcap[k] == 0.0:
        _o_push(obuf, ostate, parent, k)
    k = head[a]
    while parent[k] != NODE_TERM:
        pa = parent[k]
        rcap[pa ^ 1] += bottleneck
        rcap[pa] -= bottleneck
        nk = head[pa]
        if rcap[pa] == 0.0:
            _o_push(obuf, ostate, parent, k)
        k = nk
    trcap[k] += bottleneck
    if trcap[k] == 0.0:
        _o_push(obuf, ostate, parent, k)
    return bottleneck


def _process_orphan(i, first, head, nxt, rcap, trcap, parent, is_sink,
                    dist, ts, time, qnext, qstate, obuf, ostate):
    """Try to re-attach orphan i inside its own tree; otherwise free it,
    orphaning its children and re-activating potential adopters."""
    tree = is_sink[i]
    best_arc = -1
    best_d = _INF_D
    a = first[i]
    while a != -1:
        if tree == 0:
            resid = rcap[a ^ 1]
        else:
            resid = rcap[a]
        if resid > 0.0:
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
    elif (tree == 0 and trcap[i] > 0.0) or (tree == 1 and trcap[i] < 0.0):
        # warm solves can leave interior nodes with terminal residual:
        # such an orphan re-roots at its terminal instead of going free
        parent[i] = NODE_TERM
        ts[i] = time
        dist[i] = 1
        _q_push(qnext, qstate, i)
    else:
        # no parent found: i leaves the tree
        a = first[i]
        while a != -1:
            j = head[a]
            if parent[j] != NODE_NONE and is_sink[j] == tree:
                if tree == 0:
                    resid = rcap[a ^ 1]
                else:
                    resid = rcap[a]
                if resid > 0.0:
                    _q_push(qnext, qstate, j)
                pj = parent[j]
                if pj >= 0 and head[pj] == i:
                    _o_push(obuf, ostate, parent, j)
            a = nxt[a]
        parent[i] = NODE_NONE


def bk_maxflow(first, head, nxt, rcap, trcap, parent, is_sink, dist, ts,
               time0, marked, warm):
    """Run max-flow to completion.  Returns (flow pushed, augmentations,
    new timestamp).  With ``warm`` the existing trees are kept and repaired
    around the ``marked`` nodes (a sorted list of the nodes whose terminal
    capacities changed).

    Every state argument is a list; ``rcap``, ``trcap``, ``parent``,
    ``is_sink``, ``dist`` and ``ts`` are updated in place."""
    n = len(first)
    qnext = [-1] * n
    qstate = [-1, -1]
    obuf = [0] * (n + 1)
    ostate = [0, 0]
    time = time0
    flow_added = 0.0
    n_aug = 0

    if not warm:
        for i in range(n):
            ts[i] = time
            dist[i] = 1
            if trcap[i] > 0.0:
                parent[i] = NODE_TERM
                is_sink[i] = 0
                _q_push(qnext, qstate, i)
            elif trcap[i] < 0.0:
                parent[i] = NODE_TERM
                is_sink[i] = 1
                _q_push(qnext, qstate, i)
            else:
                parent[i] = NODE_NONE
    else:
        # a fresh timestamp: nodes stamped by the previous solve's last
        # stage must not pass as already checked during this repair
        time += 1
        for i in marked:
            _q_push(qnext, qstate, i)
            if trcap[i] == 0.0:
                if parent[i] != NODE_NONE and parent[i] != NODE_ORPH:
                    _o_push(obuf, ostate, parent, i)
                continue
            if trcap[i] > 0.0:
                if parent[i] == NODE_NONE or is_sink[i] == 1:
                    # i becomes a source-tree root; its children (in either
                    # tree) lose their path through it and must re-attach
                    is_sink[i] = 0
                    a = first[i]
                    while a != -1:
                        j = head[a]
                        if parent[j] == (a ^ 1):
                            _o_push(obuf, ostate, parent, j)
                        if (parent[j] != NODE_NONE
                                and is_sink[j] == 1 and rcap[a] > 0.0):
                            _q_push(qnext, qstate, j)
                        a = nxt[a]
                    parent[i] = NODE_TERM
                    ts[i] = time
                    dist[i] = 1
                # an already queued orphan stays queued: adoption will
                # re-root it at the terminal if nothing better is found
            else:
                if parent[i] == NODE_NONE or is_sink[i] == 0:
                    is_sink[i] = 1
                    a = first[i]
                    while a != -1:
                        j = head[a]
                        if parent[j] == (a ^ 1):
                            _o_push(obuf, ostate, parent, j)
                        if (parent[j] != NODE_NONE
                                and is_sink[j] == 0 and rcap[a ^ 1] > 0.0):
                            _q_push(qnext, qstate, j)
                        a = nxt[a]
                    parent[i] = NODE_TERM
                    ts[i] = time
                    dist[i] = 1
        while True:
            j = _o_pop(obuf, ostate)
            if j == -1:
                break
            if parent[j] == NODE_ORPH:
                _process_orphan(j, first, head, nxt, rcap, trcap, parent,
                                is_sink, dist, ts, time, qnext, qstate,
                                obuf, ostate)

    cur = -1
    while True:
        i = cur
        cur = -1
        if i != -1 and parent[i] == NODE_NONE:
            i = -1
        if i == -1:
            while True:
                i = _q_pop(qnext, qstate)
                if i == -1 or parent[i] != NODE_NONE:
                    break
            if i == -1:
                break
        found = -1
        if is_sink[i] == 0:
            a = first[i]
            while a != -1:
                if rcap[a] > 0.0:
                    j = head[a]
                    if parent[j] == NODE_NONE:
                        is_sink[j] = 0
                        parent[j] = a ^ 1
                        ts[j] = ts[i]
                        dist[j] = dist[i] + 1
                        _q_push(qnext, qstate, j)
                    elif is_sink[j] == 1:
                        found = a
                        break
                    elif ts[j] <= ts[i] and dist[j] > dist[i]:
                        # shorter path to the root: re-parent
                        parent[j] = a ^ 1
                        ts[j] = ts[i]
                        dist[j] = dist[i] + 1
                a = nxt[a]
        else:
            a = first[i]
            while a != -1:
                if rcap[a ^ 1] > 0.0:
                    j = head[a]
                    if parent[j] == NODE_NONE:
                        is_sink[j] = 1
                        parent[j] = a ^ 1
                        ts[j] = ts[i]
                        dist[j] = dist[i] + 1
                        _q_push(qnext, qstate, j)
                    elif is_sink[j] == 0:
                        found = a ^ 1
                        break
                    elif ts[j] <= ts[i] and dist[j] > dist[i]:
                        parent[j] = a ^ 1
                        ts[j] = ts[i]
                        dist[j] = dist[i] + 1
                a = nxt[a]
        time += 1
        if found != -1:
            cur = i  # keep growing from i after the augmentation
            flow_added += _augment(found, head, rcap, trcap, parent,
                                   obuf, ostate)
            n_aug += 1
            while True:
                j = _o_pop(obuf, ostate)
                if j == -1:
                    break
                if parent[j] == NODE_ORPH:
                    _process_orphan(j, first, head, nxt, rcap, trcap,
                                    parent, is_sink, dist, ts, time,
                                    qnext, qstate, obuf, ostate)
    return flow_added, n_aug, time
