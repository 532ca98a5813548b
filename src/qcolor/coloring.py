"""Exact classical graph parameters: c-colorability, chromatic number, clique
number, plus certificate verification.

The decision solver is DSATUR-style branch and bound (Brelaz 1979): a
greedy clique is pre-colored for symmetry breaking, the next vertex is always
one of maximum saturation (ties broken toward the lowest id for deterministic
runs), and at most one fresh color may be introduced per branch.  "no" answers
are exhaustive.  Budgets count node expansions, not wall time, so runs are
reproducible.

Both exact searches work on int bitsets (Graph.masks, one adjacency mask per
vertex) and keep their branch state in an explicit stack of frames, not in
recursion, so their depth is bounded by memory rather than the interpreter.
DSATUR keeps, per color, the uncolored vertices with a neighbour of that
color, and the saturation counts bit-sliced, one bitset per bit: coloring a
vertex adds 1 by a ripple carry, and backtracking subtracts it by a borrow.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, VerifyResult

DEFAULT_BUDGET = 5_000_000

YES = "yes"
NO = "no"
BUDGET_EXCEEDED = "budget_exceeded"


class ColoringError(ValueError):
    pass


@dataclass(frozen=True)
class ColoringCertificate:
    """A total color assignment; properness is checked by verify_coloring."""
    c: int
    colors: tuple[int, ...]


@dataclass(frozen=True)
class ColoringResult:
    status: str  # yes | no | budget_exceeded
    certificate: ColoringCertificate | None
    nodes: int


@dataclass(frozen=True)
class CliqueResult:
    omega: int
    clique: tuple[int, ...]
    status: str  # exact | budget_exceeded (omega is then only a lower bound)
    nodes: int


@dataclass(frozen=True)
class ChromaticResult:
    chi: int | None
    certificate: ColoringCertificate | None
    lower: int
    upper: int
    status: str  # exact | budget_exceeded
    nodes: int
    clique: tuple[int, ...]


def verify_coloring(g: Graph, cert: ColoringCertificate) -> VerifyResult:
    """Whether cert is a proper coloring of g; a failure names the first edge
    (u, w) of g.edge_array whose ends share a color, and that color."""
    if len(cert.colors) != g.n:
        raise ColoringError(
            f"certificate colors {len(cert.colors)} vertices, graph has {g.n}")
    for v, col in enumerate(cert.colors):
        if not 0 <= col < cert.c:
            raise ColoringError(f"vertex {v} has out-of-range color {col} (c={cert.c})")
    colors = np.asarray(cert.colors)[g.edge_array]  # object dtype past int64
    bad = np.flatnonzero(colors[:, 0] == colors[:, 1])
    if not bad.size:
        return VerifyResult(True, None)
    u, w = g.edge_array[bad[0]].tolist()
    return VerifyResult(False, None, (u, w, int(colors[bad[0], 0])), "ends share a color")


def _by_degree(degree: list[int]) -> list[int]:
    """Vertices by decreasing degree, then increasing index."""
    return sorted(range(len(degree)), key=lambda v: (-degree[v], v))


def greedy_clique(g: Graph) -> list[int]:
    """Highest-degree-first greedy clique, deterministic, used for seeding:
    each pick is the first vertex in degree order adjacent to all earlier
    picks."""
    adj = g.masks
    clique: list[int] = []
    cand = (1 << len(adj)) - 1
    for v in _by_degree([a.bit_count() for a in adj]):
        if cand >> v & 1:
            clique.append(v)
            cand &= adj[v]
    return sorted(clique)


def _color_sort(adj: tuple[int, ...], pmask: int) -> tuple[list[int], list[int]]:
    # vertices of pmask in nondecreasing greedy-color order, with their colors
    order: list[int] = []
    bounds: list[int] = []
    k = 0
    rem = pmask
    while rem:
        k += 1
        cand = rem
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            cand &= ~(adj[v] | b)
            rem &= ~b
            order.append(v)
            bounds.append(k)
    return order, bounds


def clique_number(g: Graph, budget: int = DEFAULT_BUDGET) -> CliqueResult:
    """Exact maximum clique by branch and bound with a greedy-coloring bound
    (Tomita-Kameda MCQ over bitsets), on an explicit stack."""
    n = g.n
    adj = g.masks
    best = greedy_clique(g)
    current: list[int] = []
    full = (1 << n) - 1
    # frames [order, bounds, i, pmask]: branch on order[i], order[i - 1], ...
    stack = [[*_color_sort(adj, full), n - 1, full]]
    nodes = 0
    status = "exact"
    while stack:
        frame = stack[-1]
        order, bounds, i, pmask = frame
        if i >= 0 and len(current) + bounds[i] > len(best):
            nodes += 1
            if nodes > budget:
                status = BUDGET_EXCEEDED
                break
            v = order[i]
            current.append(v)
            sub = pmask & adj[v]
            if sub:
                order, bounds = _color_sort(adj, sub)
                stack.append([order, bounds, len(order) - 1, sub])
                continue
            if len(current) > len(best):
                best = current.copy()
        else:
            stack.pop()
            if not stack:
                break
            frame = stack[-1]
        # frame's branch vertex is done: drop it from the candidates
        v = current.pop()
        frame[2] -= 1
        frame[3] &= ~(1 << v)
    return CliqueResult(len(best), tuple(sorted(best)), status, nodes)


def _dsatur(adj: tuple[int, ...], c: int, seed: Sequence[int],
            budget: int) -> tuple[str, list[int] | None, int]:
    """Explicit-stack DSATUR over adjacency bitsets.

    The vertices of seed (a clique) get colors 0, 1, ... in order.  Each node
    expands the uncolored vertex of maximum saturation, lowest index first,
    and tries the colors 0..min(k + 1, c) - 1 in order, where k colors are in
    use: at most one fresh color per branch.  Returns (status, colors, nodes).

    planes[p] holds bit p of every saturation count.  Only free vertices are
    counted, so a picked vertex's count is right again once it is freed.  A
    frame is the vertex, k when it was picked, its color and the vertices
    that color saturated, at one index of four flat lists.
    """
    n = len(adj)
    colors = [-1] * n
    has = [0] * c  # has[col]: vertices with a neighbour colored col
    planes = [0] * (c + 1).bit_length()  # no saturation exceeds c
    free = (1 << n) - 1
    for col, v in enumerate(seed):  # the seed's own counts are never read
        colors[v] = col
        free ^= 1 << v
        has[col] = carry = adj[v]
        p = 0
        while carry:
            plane = planes[p]
            planes[p] = plane ^ carry
            carry &= plane
            p += 1
    vertex, used, color, touched = [0] * n, [0] * n, [0] * n, [0] * n
    k, nodes, top = len(seed), 0, -1  # top: the depth of the top frame
    while free:
        cand = free
        for plane in reversed(planes):  # top saturation, then lowest index
            cand = cand & plane or cand
        low = cand & -cand
        nodes += 1
        if nodes > budget:
            return BUDGET_EXCEEDED, None, nodes
        free ^= low
        top += 1
        vertex[top], used[top], color[top] = low.bit_length() - 1, k, -1
        # move the top frame to its next color, popping exhausted frames
        while top >= 0:
            v, k, col = vertex[top], used[top], color[top]
            if col >= 0:  # undo the previous color
                borrow, p = touched[top], 0
                has[col] ^= borrow
                while borrow:
                    plane = planes[p]
                    planes[p] = plane ^ borrow
                    borrow &= ~plane
                    p += 1
            bit = 1 << v
            col += 1
            limit = k + 1 if k < c else c
            while col < limit and has[col] & bit:
                col += 1
            if col < limit:
                carry, p = adj[v] & free & ~has[col], 0
                has[col] |= carry
                color[top], touched[top] = col, carry
                while carry:
                    plane = planes[p]
                    planes[p] = plane ^ carry
                    carry &= plane
                    p += 1
                colors[v] = col
                if col == k:
                    k += 1
                break
            free |= bit
            top -= 1
        else:
            return NO, None, nodes
    return YES, colors, nodes


def greedy_coloring(g: Graph) -> ColoringCertificate:
    """DSATUR greedy (no backtracking); an upper-bound certificate.

    The next vertex maximizes (saturation, degree, -index).  It is the first
    leaf of _dsatur with c = n on vertices relabeled by (-degree, index).
    """
    n = g.n
    order = _by_degree(np.bincount(g.edge_array.ravel(), minlength=n).tolist())
    rank = np.argsort(order)  # the inverse permutation
    status, colors, _ = _dsatur(Graph(n, rank[g.edge_array]).masks, n, [], n)
    if colors is None:
        raise RuntimeError(f"greedy DSATUR stopped with status {status!r}")
    relabeled = tuple(colors[r] for r in rank.tolist())
    return ColoringCertificate(max(relabeled, default=-1) + 1, relabeled)


def is_c_colorable(g: Graph, c: int, budget: int = DEFAULT_BUDGET) -> ColoringResult:
    """Decide whether g admits a proper c-coloring.

    "yes" carries a certificate that passes verify_coloring; "no" is the
    result of an exhaustive search (up to color-class symmetry, which the
    clique pre-coloring and fresh-color rule break soundly).
    """
    if c < 1:
        raise ColoringError(f"color count must be >= 1, got {c}")
    return _decide(g, c, greedy_clique(g), budget)


def _decide(g: Graph, c: int, clique: Sequence[int], budget: int) -> ColoringResult:
    if len(clique) > c:
        return ColoringResult(NO, None, 0)
    # no branch can use more than n colors, and the kernel's state is O(c)
    status, colors, nodes = _dsatur(g.masks, min(c, g.n), clique, budget)
    if colors is None:
        return ColoringResult(status, None, nodes)
    cert = ColoringCertificate(c, tuple(colors))
    if not verify_coloring(g, cert):
        raise RuntimeError(f"DSATUR returned an improper {c}-coloring")
    return ColoringResult(YES, cert, nodes)


def chromatic_number(g: Graph, budget: int = DEFAULT_BUDGET) -> ChromaticResult:
    """Exact chromatic number with a proper coloring certificate.

    On success every value below chi has been refuted: those below the greedy
    clique's size by the clique itself, the rest exhaustively by the search,
    which tries them in increasing order.  If the budget runs out the result
    carries the best-known bounds instead.
    """
    clique = tuple(greedy_clique(g))
    lower = max(len(clique), 1)
    best_cert = greedy_coloring(g)
    upper = best_cert.c
    nodes = 0
    for c in range(lower, upper):
        res = _decide(g, c, clique, budget)
        nodes += res.nodes
        if res.status == BUDGET_EXCEEDED:
            return ChromaticResult(None, best_cert, c, upper, BUDGET_EXCEEDED,
                                   nodes, clique)
        if res.status == YES:
            return ChromaticResult(c, res.certificate, c, c, "exact", nodes, clique)
    return ChromaticResult(upper, best_cert, upper, upper, "exact", nodes, clique)
