"""Leader-follower communication graphs.

A network of ``N`` followers and one leader is modeled as a weighted
digraph on nodes ``0..N`` where node 0 is the leader.  An edge
``(j, i, w)`` means agent ``i`` receives information from agent ``j``
with weight ``w > 0``; the leader never receives anything, so edges
into node 0 are rejected.

The object of interest for synthesis is the follower-to-follower
coupling matrix ``H``: the lower-right ``N x N`` block of the graph
Laplacian.  Its spectrum decides whether a distributed design exists,
and the equivalence between "every eigenvalue of H has positive real
part" and "the graph contains a spanning tree rooted at the leader" is
exposed as two independently computed predicates so it can be checked
rather than assumed.
"""

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import ConfigurationError, NumericalError
from .matrixops import DEFAULT_RANK_TOL, as_count, as_real, eigenvalues

__all__ = [
    "Digraph",
    "adjacency",
    "laplacian",
    "h_matrix",
    "has_leader_spanning_tree",
    "connectivity_spectral_check",
]


@dataclass(frozen=True)
class Digraph:
    """Weighted leader-follower digraph on nodes ``0..n_followers``.

    Parameters
    ----------
    n_followers : int
        Number of followers ``N``; nodes are ``0`` (leader) through ``N``.
    edges : sequence of (int, int, float)
        Directed edges ``(source, target, weight)``.  Information flows
        from source to target.  Node indices must be integers and
        weights real numbers (``bool`` is neither).
    """

    n_followers: int
    edges: tuple = field(default=())

    def __post_init__(self):
        n = as_count(self.n_followers, "graph.n_followers:", 1)
        seen = set()
        norm = []
        for k, edge in enumerate(self.edges):
            try:
                src, dst, w = edge
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"graph.edges[{k}]: expected (source, target, weight), got {edge!r}"
                )
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in (src, dst)):
                raise ConfigurationError(
                    f"graph.edges[{k}]: node indices must be integers, got ({src!r}, {dst!r})"
                )
            w = as_real(w, f"graph.edges[{k}]: weight")
            src, dst = int(src), int(dst)
            if not (0 <= src <= n) or not (0 <= dst <= n):
                raise ConfigurationError(
                    f"graph.edges[{k}]: node index out of range 0..{n}: ({src}, {dst})"
                )
            if src == dst:
                raise ConfigurationError(f"graph.edges[{k}]: self-loop at node {src}")
            if dst == 0:
                raise ConfigurationError(
                    f"graph.edges[{k}]: edge into the leader (node 0) is not allowed"
                )
            if (src, dst) in seen:
                raise ConfigurationError(
                    f"graph.edges[{k}]: duplicate edge ({src}, {dst})"
                )
            seen.add((src, dst))
            norm.append((src, dst, w))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "n_followers", n)

    @cached_property
    def _h_spectrum(self):
        """Sorted, read-only eigenvalues of ``H``, computed once per (frozen) graph."""
        lam = eigenvalues(h_matrix(self)[0], "H")
        lam.flags.writeable = False
        return lam

    @cached_property
    def _h_slices(self):
        """Distinct eigenvalues of ``H``, one per conjugate pair, as read-only ``(real, complex)`` arrays.

        The spectrum is sorted by (real, imag), so a value within
        ``1e-12 * max(1, |lam|)`` of the last one kept is merged into it:
        one comparison per value.  A near-duplicate that the sort does not
        place next to its twin is kept as a slice of its own, which adds a
        lift but never drops one.
        """
        kept = []
        for lam in self._h_spectrum:
            if lam.imag >= 0 and not (kept and abs(lam - kept[-1]) <= 1e-12 * max(1.0, abs(lam))):
                kept.append(lam)
        kept = np.array(kept, dtype=complex)
        slices = (kept[kept.imag == 0].real, kept[kept.imag != 0])
        for lam in slices:
            lam.flags.writeable = False
        return slices

    @cached_property
    def _in_edge_table(self):
        """Read-only ``(order, groups)``: the in-edge layout of every edge-local coupling, once per graph.

        ``order`` lists the followers in stepping order.  A group
        ``(lo, hi, ends, w)`` holds followers ``order[lo:hi]``: row ``k``
        of ``ends`` (shape ``(hi - lo, slots, 2)``) and ``w`` (``(hi -
        lo, slots)``) holds each in-edge of follower ``order[lo + k]``, in
        edge-list order, as its receiver, sender and weight, then padding
        up to the group's largest in-degree: the leader as both ends, at
        weight 0.  All followers form one group, in node order, when ``N *
        max in-degree <= 2 (|E| + N)``.  Otherwise a group holds, in node
        order, the followers of one bit length of the in-degree, largest
        first, those that hear nobody counting as in-degree 1.  A group
        then pads fewer slots than it has in-edges, plus one per follower
        that hears nobody, and there are at most ``bit_length(max
        in-degree)`` groups.
        """
        n = self.n_followers
        heard = [[] for _ in range(n + 1)]
        for src, dst, w in self.edges:
            heard[dst].append((dst, src, w))
        deg = [len(edges) for edges in heard]
        key = [0] * (n + 1)
        if n * max(deg) > 2 * (len(self.edges) + n):
            key = [-max(d, 1).bit_length() for d in deg]
        order = np.array(sorted(range(1, n + 1), key=key.__getitem__), dtype=int)
        groups, lo = [], 0
        for _, members in groupby(order.tolist(), key.__getitem__):
            members = list(members)
            slots = max(deg[i] for i in members)
            rows = np.array([heard[i] + [(0, 0, 0.0)] * (slots - deg[i]) for i in members])
            rows = rows.reshape(len(members), slots, 3)  # [receiver, sender, weight] per slot
            groups.append((lo, lo + len(members), rows[..., :2].astype(int), rows[..., 2].copy()))
            lo += len(members)
        for arr in (order, *(arr for group in groups for arr in group[2:])):
            arr.flags.writeable = False
        return order, tuple(groups)

    def in_edges(self, i):
        """List of ``(source, weight)`` pairs feeding node ``i`` (leader included)."""
        return [(src, w) for (src, dst, w) in self.edges if dst == i]


def adjacency(g):
    """Weighted adjacency matrix ``A`` with ``A[i, j]`` the weight of edge ``j -> i``."""
    n = g.n_followers + 1
    a = np.zeros((n, n))
    for src, dst, w in g.edges:
        a[dst, src] = w
    return a


def laplacian(g):
    """Graph Laplacian ``L = diag(row sums of A) - A`` over all ``N + 1`` nodes."""
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def h_matrix(g):
    """Follower coupling matrix and leader weight diagonal.

    Returns
    -------
    h : ndarray
        Lower-right ``N x N`` block of the Laplacian.
    delta : ndarray
        ``N x N`` diagonal matrix of leader edge weights ``a_{i0}``.

    Notes
    -----
    By construction each row of ``h`` sums to the corresponding leader
    weight, i.e. ``h @ ones == delta @ ones``.  The identity is verified to
    ``1e-12`` times the largest in-weight sum, and a violation raises
    :class:`NumericalError`, since it would indicate an internal assembly
    bug rather than bad user input.
    """
    a = adjacency(g)
    in_weight = a[1:].sum(axis=1)
    h = np.diag(in_weight) - a[1:, 1:]
    delta = np.diag(a[1:, 0])
    ones = np.ones(g.n_followers)
    if not np.allclose(h @ ones, delta @ ones, rtol=0.0, atol=1e-12 * max(1.0, in_weight.max())):
        raise NumericalError("h_matrix: row-sum identity H 1 == delta 1 failed")
    return h, delta


def has_leader_spanning_tree(g):
    """True if every follower is reachable from the leader along edge directions.

    Plain breadth-first search on the edge list; shares no code with the
    spectral test so the two can validate each other.
    """
    succ = {}
    for src, dst, _ in g.edges:
        succ.setdefault(src, []).append(dst)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == g.n_followers + 1


def connectivity_spectral_check(g):
    """True if every eigenvalue of ``H`` has real part greater than ``DEFAULT_RANK_TOL``.

    Equivalent to :func:`has_leader_spanning_tree` in exact arithmetic;
    computed from the spectrum so the equivalence is testable.
    """
    return bool(np.min(np.real(g._h_spectrum)) > DEFAULT_RANK_TOL)
