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
color, and per saturation level the uncolored vertices at that level; coloring
a vertex shifts the newly saturated neighbours up one level, and backtracking
shifts them back.
"""
from __future__ import annotations

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


def _dsatur(adj: tuple[int, ...], c: int, seed: list[int],
            budget: int) -> tuple[str, list[int] | None, int]:
    """Explicit-stack DSATUR over adjacency bitsets.

    The vertices of seed (a clique) get colors 0, 1, ... in order.  Each node
    expands the uncolored vertex of maximum saturation, lowest index first,
    and tries the colors 0..min(k + 1, c) - 1 in order, where k colors are in
    use: at most one fresh color per branch.  Returns (status, colors, nodes).
    """
    n = len(adj)
    colors = [-1] * n
    has = [0] * c  # has[col]: vertices with a neighbour colored col
    level = [0] * (c + 2)  # level[s]: uncolored vertices of saturation s
    seeded = 0
    for col, v in enumerate(seed):
        colors[v] = col
        has[col] = adj[v]
        seeded |= 1 << v
    free = ((1 << n) - 1) ^ seeded
    for u in range(n):
        if colors[u] < 0:  # the seed colors are distinct
            level[(adj[u] & seeded).bit_count()] |= 1 << u
    k = len(seed)
    nodes = 0
    stack: list[list[int]] = []  # frames [v, saturation, k, color, touched]
    while free:
        s = k
        while not level[s]:
            s -= 1
        low = level[s] & -level[s]
        nodes += 1
        if nodes > budget:
            return BUDGET_EXCEEDED, None, nodes
        level[s] ^= low
        free ^= low
        stack.append([low.bit_length() - 1, s, k, -1, 0])
        # move the top frame to its next color, popping exhausted frames
        while stack:
            frame = stack[-1]
            v, s, k, col, touched = frame
            if col >= 0:  # undo the previous color: touched moves down
                has[col] ^= touched
                for t in range(1, k + 2):
                    moved = level[t] & touched
                    if moved:
                        level[t] ^= moved
                        level[t - 1] |= moved
                        touched ^= moved
                        if not touched:
                            break
            bit = 1 << v
            col += 1
            limit = k + 1 if k < c else c
            while col < limit and has[col] & bit:
                col += 1
            if col < limit:
                touched = adj[v] & free & ~has[col]
                has[col] |= touched
                frame[3], frame[4] = col, touched
                for t in range(k, -1, -1):  # touched moves up one level
                    moved = level[t] & touched
                    if moved:
                        level[t] ^= moved
                        level[t + 1] |= moved
                        touched ^= moved
                        if not touched:
                            break
                colors[v] = col
                if col == k:
                    k += 1
                break
            colors[v] = -1
            level[s] |= bit
            free |= bit
            stack.pop()
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
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
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
    clique = greedy_clique(g)
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
        res = is_c_colorable(g, c, budget)
        nodes += res.nodes
        if res.status == BUDGET_EXCEEDED:
            return ChromaticResult(None, best_cert, c, upper, BUDGET_EXCEEDED,
                                   nodes, clique)
        if res.status == YES:
            return ChromaticResult(c, res.certificate, c, c, "exact", nodes, clique)
    return ChromaticResult(upper, best_cert, upper, upper, "exact", nodes, clique)
