"""Kochen-Specker style decision procedures on finite vector sets.

A set of rays is KS when no {0,1} labeling gives every orthonormal basis
(drawn from the set itself) exactly one 1.  It is weak KS when every labeling
that does satisfy the exactly-one-per-basis condition is forced to put 1 on
two orthogonal rays.  Every KS set is weak KS; the converse fails.

Bases are found exhaustively as d-cliques of the orthogonality graph (d
mutually orthogonal unit vectors in C^d always form a basis).  The decision
itself is a small backtracking solver with unit propagation on the
exactly-one constraints, plus an independent brute-force oracle for sets of at
most 25 rays.  Basis enumeration and the solver both work on int bitsets (the
graph's Graph.masks, one mask per basis, and the rays labeled 1 and 0) and
keep their branches on explicit stacks: there is no recursion, so any set
that fits in memory can be decided, and a branch backtracks by restoring two
ints.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coloring import BUDGET_EXCEEDED, DEFAULT_BUDGET
from .graphs import Graph, orthogonality_graph
from .linalg import DEFAULT_TOL, block_rows

BRUTE_FORCE_LIMIT = 25


class KSError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Canonicalized rays: unit norm, first nonzero coordinate real positive,
    duplicates up to global phase merged (merged_ids records the originals)."""
    dimension: int
    vectors: np.ndarray  # (k, d) complex
    labels: tuple[str, ...]
    merged_ids: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class KSDecision:
    is_ks: bool | None  # None: the budget ran out before it was decided
    is_weak_ks: bool | None
    witness: tuple[int, ...] | None  # labeling over rays, present iff not KS
    method: str  # backtracking | brute_force
    bases: int  # orthonormal bases inside the set
    status: str = "exact"  # exact | budget_exceeded
    decisions: int = 0  # labeling decisions of the backtracking search


def canonicalize(raw_vectors, tol: float = DEFAULT_TOL, labels=None) -> VectorSet:
    """Normalize, fix global phases, and merge phase-duplicates.

    Raises on a tol that is not positive and finite, zero vectors and
    ragged/mismatched dimensions.  Order of first occurrence is preserved,
    so ray indices are stable across runs.
    """
    if not 0 < tol < np.inf:
        raise KSError(f"tol must be positive and finite, got {tol}")
    vecs = [np.asarray(v, dtype=complex).ravel() for v in raw_vectors]
    if not vecs:
        raise KSError("empty vector set")
    d = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != d:
            raise KSError(f"vector {i} has dimension {v.shape[0]}, expected {d}")
    if labels is None:
        labels = [f"r{i}" for i in range(len(vecs))]
    elif len(labels) != len(vecs):
        raise KSError("label count does not match vector count")

    kept = np.empty((len(vecs), d), dtype=complex)  # rays kept[:m]
    m = 0
    kept_labels: list[str] = []
    merged: list[list[int]] = []
    for i, v in enumerate(vecs):
        norm = np.linalg.norm(v)
        if norm <= tol:
            raise KSError(f"vector {i} ('{labels[i]}') is zero")
        v = v / norm
        nz = np.flatnonzero(np.abs(v) > tol)[0]
        v = v * (np.conj(v[nz]) / np.abs(v[nz]))
        # the first kept ray equal to v up to phase absorbs it; |<k, v>| is
        # taken as |k . conj(v)|, which spares a conjugated copy of kept
        hits = np.flatnonzero(np.abs(kept[:m] @ v.conj()) >= 1.0 - tol)
        if hits.size:
            merged[hits[0]].append(i)
        else:
            kept[m] = v
            m += 1
            kept_labels.append(str(labels[i]))
            merged.append([i])
    mat = kept[:m].copy()
    mat.flags.writeable = False
    return VectorSet(dimension=d, vectors=mat, labels=tuple(kept_labels),
                     merged_ids=tuple(tuple(g) for g in merged))


def enumerate_bases(s: VectorSet, tol: float = DEFAULT_TOL) -> list[tuple[int, ...]]:
    """All orthonormal bases inside s, i.e. all d-cliques of its orthogonality
    graph, each a sorted index tuple; the list is sorted lexicographically."""
    return _bases(orthogonality_graph(s.vectors, tol=tol), s.dimension)


def _bases(g: Graph, d: int) -> list[tuple[int, ...]]:
    """All d-cliques of g, as enumerate_bases lists them: each step extends
    the clique by its lowest candidate left, which gives lexicographic order."""
    adj = g.masks
    bases: list[tuple[int, ...]] = []
    clique: list[int] = []
    cands = [(1 << g.n) - 1]  # cands[i]: the vertices left to extend clique[:i]
    while cands:
        cand = cands[-1]
        if cand.bit_count() < d - len(clique):
            cands.pop()
            if clique:
                clique.pop()
            continue
        low = cand & -cand
        cands[-1] = cand ^ low
        v = low.bit_length() - 1
        if len(clique) + 1 == d:
            bases.append((*clique, v))
        else:
            clique.append(v)
            cands.append(cand & adj[v])
    return bases


def verify_ks_witness(s: VectorSet, witness, weak: bool = False,
                      tol: float = DEFAULT_TOL) -> bool:
    """Mechanical validation: exactly one 1 per enumerated basis, and (for the
    weak condition) no orthogonal pair labeled 1-1."""
    f = list(witness)
    if len(f) != s.size or any(x not in (0, 1) for x in f):
        raise KSError("witness must assign 0/1 to every ray")
    g = orthogonality_graph(s.vectors, tol=tol)
    if any(sum(f[r] for r in b) != 1 for b in _bases(g, s.dimension)):
        return False
    if weak and any(f[u] and f[v] for u, v in g.edge_array.tolist()):
        return False
    return True


def _search_labeling(n: int, bases: list[tuple[int, ...]],
                     masks: tuple[int, ...] | None,
                     budget: int) -> tuple[list[int] | None, int]:
    """Exhaustive backtracking for a labeling with exactly one 1 per basis.

    masks, when given (the orthogonality graph's Graph.masks), additionally
    forbids two 1s on orthogonal rays.  Branch order: rays by decreasing
    basis-membership count (ties by index), label 0 tried before 1.  Returns
    the first labeling found, or None, and the labeling decisions (propagate
    calls) made; the search stops undecided once they pass budget.
    """
    membership: list[list[int]] = [[] for _ in range(n)]  # basis masks per ray
    # kill[r]: the rays a 1 on ray r sets to 0, its basis mates and (in the
    # weak search) its orthogonal rays
    kill = list(masks) if masks is not None else [0] * n
    for b in bases:
        bm = sum(1 << r for r in b)
        for r in b:
            membership[r].append(bm)
            kill[r] |= bm ^ (1 << r)
    order = sorted(range(n), key=lambda r: (-len(membership[r]), r))

    def propagate(ones: int, zeros: int, root: int, val: int):
        # unit propagation from root := val: (ones, zeros), or None on conflict
        queue = [(root, val)]
        while queue:
            r, v = queue.pop()
            bit = 1 << r
            if v:
                if ones & bit:
                    continue
                ones |= bit  # never on a 0: a 0 on a queued 1 empties the basis that forced it
                fresh = kill[r] & ~zeros
            else:  # only the branch ray, which is free
                fresh = bit
            zeros |= fresh
            while fresh:  # a basis with no 1 and one free ray left forces it
                low = fresh & -fresh
                fresh ^= low
                for bm in membership[low.bit_length() - 1]:
                    if not bm & ones:
                        free = bm & ~zeros
                        if not free:
                            return None
                        if not free & (free - 1):
                            queue.append((free.bit_length() - 1, 1))
        return ones, zeros

    # frames [pos, next value, ones, zeros]: ray order[pos] is being branched
    # from the state (ones, zeros) saved before the branch
    stack: list[list[int]] = []
    ones = zeros = pos = decisions = 0
    while True:
        done = ones | zeros
        while pos < n and done >> order[pos] & 1:
            pos += 1
        if pos == n:
            return [ones >> r & 1 for r in range(n)], decisions
        stack.append([pos, 0, ones, zeros])
        while stack:
            frame = stack[-1]
            pos, val, ones, zeros = frame
            if val == 2:
                stack.pop()
                continue
            decisions += 1
            if decisions > budget:
                return None, decisions
            frame[1] = val + 1
            state = propagate(ones, zeros, order[pos], val)
            if state is not None:
                ones, zeros = state
                pos += 1
                break
        else:
            return None, decisions


def ks_check(s: VectorSet, tol: float = DEFAULT_TOL,
             budget: int = DEFAULT_BUDGET) -> KSDecision:
    """Decide whether s is a KS set and whether it is weak KS; exhaustive, so
    both answers are definitive.  The weak search (1s on orthogonal rays
    forbidden) runs first, since its witness settles both flags.  The two
    searches share budget labeling decisions; past it the result has status
    budget_exceeded, no witness and None for each flag left undecided."""
    g = orthogonality_graph(s.vectors, tol=tol)
    bases = _bases(g, s.dimension)
    n, count = s.size, len(bases)
    if not bases:
        # Any labeling vacuously satisfies the basis condition, including the
        # all-zero one, which also has no orthogonal 1-1 pair.
        return KSDecision(False, False, (0,) * n, "backtracking", 0)
    weak_witness, used = _search_labeling(n, bases, g.masks, budget)
    if used > budget:
        return KSDecision(None, None, None, "backtracking", count,
                          BUDGET_EXCEEDED, used)
    if weak_witness is not None:
        return KSDecision(False, False, tuple(weak_witness), "backtracking",
                          count, decisions=used)
    ks_witness, more = _search_labeling(n, bases, None, budget - used)
    used += more
    if used > budget:
        return KSDecision(None, True, None, "backtracking", count,
                          BUDGET_EXCEEDED, used)
    witness = None if ks_witness is None else tuple(ks_witness)
    return KSDecision(witness is None, True, witness, "backtracking", count,
                      decisions=used)


def brute_force_ks(s: VectorSet, tol: float = DEFAULT_TOL,
                   budget: int | None = None) -> KSDecision:
    """Oracle by enumerating all 2^k labelings (k <= 25).

    Labeling i puts 1 on ray r iff bit r of i is set; the first labeling in
    that order that passes is the witness.  Both decision flags are computed.
    A budget below 2^k labelings decides nothing: status budget_exceeded.
    """
    k = s.size
    if k > BRUTE_FORCE_LIMIT:
        raise KSError(f"brute force limited to {BRUTE_FORCE_LIMIT} rays, got {k}")
    g = orthogonality_graph(s.vectors, tol=tol)
    bases = _bases(g, s.dimension)  # none: labeling 0 is a weak witness
    if budget is not None and 1 << k > budget:
        return KSDecision(None, None, None, "brute_force", len(bases), BUDGET_EXCEEDED)
    basis_masks = [sum(1 << r for r in b) for b in bases]
    pair_masks = [(1 << u) | (1 << v) for u, v in g.edge_array.tolist()]

    first_ks: int | None = None
    # per labeling: its index, the masked copy and two temporaries of it, three flags
    chunk = block_rows(4 * 8 + 3)
    for start in range(0, 1 << k, chunk):
        idx = np.arange(start, min(start + chunk, 1 << k), dtype=np.int64)
        ok = np.ones(len(idx), dtype=bool)
        for m in basis_masks:
            x = idx & m
            ok &= (x != 0) & ((x & (x - 1)) == 0)  # exactly one 1 in basis
        if not ok.any():
            continue
        if first_ks is None:
            first_ks = int(idx[np.argmax(ok)])
        for m in pair_masks:
            ok &= (idx & m) != m
        if ok.any():  # a weak witness settles both flags
            return KSDecision(False, False, _bits(int(idx[np.argmax(ok)]), k),
                              "brute_force", len(bases))
    if first_ks is not None:
        return KSDecision(False, True, _bits(first_ks, k), "brute_force",
                          len(bases))
    return KSDecision(True, True, None, "brute_force", len(bases))


def _bits(i: int, k: int) -> tuple[int, ...]:
    return tuple((i >> r) & 1 for r in range(k))
