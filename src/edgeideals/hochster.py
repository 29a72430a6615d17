"""Multigraded Betti numbers of squarefree monomial quotients via Hochster's formula.

beta_{i,sigma}(S/I) equals the dimension of the reduced homology of the
Stanley-Reisner complex of I restricted to sigma, in dimension |sigma|-i-1.
The table engine never builds one chain complex per sigma. For each
restriction it tries, in order:

- cone: a vertex in no generator support inside sigma is a cone apex, so the
  homology is zero;
- fold: a vertex x dominated by w (every facet containing x contains w) is
  deleted, a strong collapse that keeps homology over every field
  (Barmak-Minian). In terms of the minimal generator supports: for every
  support s inside sigma with w in s, some support r with x in r has
  r - x inside s - w. For edge ideals this is the fold lemma,
  N(w) inside N(x) with x, w non-adjacent;
- join: a disconnected generator-support graph splits the complex as a join
  of its components;
- split: a vertex v is pair-only when every support through it is a pair
  (in an edge ideal, every vertex). Its faces are v plus the faces missing
  N[v], so Delta = B u v*A with B = Delta|(sigma - v), A = Delta|(sigma - N[v])
  and B n v*A = A (link/deletion; Adamaszek 2012, Engstrom 2009). The cone
  v*A is acyclic, so the reduced Mayer-Vietoris sequence reads
  ... -> H_d(A) -> H_d(B) -> H_d(Delta) -> H_{d-1}(A) -> H_{d-1}(B) -> ...
  When A and B share no nonzero degree every map H_d(A) -> H_d(B) is zero,
  and over the field h_d(Delta) = h_d(B) + h_{d-1}(A): two smaller lookups.
  The pair-only vertices of largest degree are tried, at most two;
- only a connected restriction with no cone, no fold and no split (every
  try overlapped, or no vertex is pair-only) builds a chain complex
  (``StrandComplex``) and reaches the linear algebra. Its boundary
  matrices are sparse rows ({(d-1)-face index: +-1}), and each goes once to
  ``linalg.rank_over``, which eliminates unit pivots over Z (exact over
  every field) and finishes the rows left with a non-unit lead, usually
  none, by the same elimination over the field.

A complex is described only by sigma and the generator supports inside it,
its minimal non-faces; no facet list is ever stored. One function,
``_grow_faces``, enumerates faces: level by level, a face grows only by
vertices above its top one, testing only the supports through the new
vertex. ``build_strand(ideal, sigma)`` hands the same complex to callers,
e.g. the independence complex of G as ``build_strand(edge_ideal(G), full)``.

betti_table never visits a cone. One depth-first walk (``_SupportEngine.walk``)
visits only the active sets (sigma without the singleton-generator
variables) that are unions of the generator supports inside them, each once
and every submask before its supersets, and stores each one's homology in
the same loop. It decides the vertices in increasing order, carries the
union of the supports inside the chosen set, and cuts a branch once a chosen
vertex has no support left that could still cover it. A new vertex v lies
above every chosen one, so it completes only the pairs {u, v} with u chosen
and the wide supports (three or more vertices) whose top vertex is v: the
union grows by nbr(v) & chosen, plus v when that is nonempty, and by those
wide supports.
Each such set then stands for every sigma that adds singleton variables to
it, and every other sigma is a cone. So a table costs at most 2^n
restrictions, and on sparse graphs far fewer: 2,627 of 16,384 for C_14.

Every frame of the walk carries a fold witness (x, w), x dominated by w in
the chosen set sigma, or none. For pair supports domination reads
N(w) inside N(x), neighbourhoods taken in sigma. Survival lemma: this still
holds in sigma + v unless v ~ w and v !~ x. Proof: the neighbourhoods of w
and x in sigma + v are those in sigma plus v where v is adjacent, so the old
inclusion stays, and its one new element v of N(w) lies in N(x) exactly
when v ~ x. In general the test at w reads only the supports through w, so
only a new support through w and v can break it: the pair {w, v} above, or
a wide support whose domination mask at w leaves x out. A covered set whose
witness survived folds to sigma - x with no search; any other runs the one
fold search (``_fold``, which ``vector`` shares), and the witness it finds
serves the whole subtree. On the seed-1 betti-dense-gf2 list 16,883 of
25,618 walk sets fold by an inherited witness, 6,360 by a search.

Results are memoized per table in a dict keyed by the active mask, with equal
homology vectors shared as one object. A fold stores the already shared
vector of its target, so a fold to another target stores the same object.
Only the sets with no fold reach a join or split: components grow along the
nbr masks and the wide supports inside the set, the split takes N[v] as
nbr(v) & active | v, and only the chain-complex fallback lists the supports
inside. A fold, join or split looks up a smaller mask, which the walk has
already visited unless it is a cone. ``betti_table`` reads each carrier's
vector straight from the memo. A single query past the table cap, such as
the whole of Ind(C_60), recurses through the same memo.

A cover-ideal table needs no second ideal and no second walk. Hochster's
dual formula (Eagon-Reiner 1998; Miller-Sturmfels 2005) gives, for the
cover ideal I(G)* = I_Delta^vee of Delta = Ind G on the vertex set V,
beta_{i,sigma}(I(G)*) = dim H_{i-1}(lk_Delta(V - sigma)). The link of
tau = V - sigma is Ind G[V - N[tau]] when tau is independent, and void
otherwise; its homology is a restriction the quotient table of S/I(G) has
already read, so ``cover_betti_table`` re-indexes that table entry by entry.

Conventions for the reduced complex: the empty face is a basis element in
dimension -1, so the complex {<empty>} has one-dimensional homology there and
nothing else. A proper ideal has no unit generator, so the empty face is
always present and no complex here is void.
"""

from __future__ import annotations

from .errors import ResourceLimitError
from .graphs import SimpleGraph, bit_list, iter_bits, iter_subsets
from .ideals import BettiTable, MonomialIdeal, edge_ideal
from .linalg import GF2, FieldSpec, rank_over

MAX_TABLE_VARS = 16


class StrandComplex:
    """Reduced chain complex of the Stanley-Reisner complex restricted to sigma,
    given by the generator supports inside sigma (its minimal non-faces).

    faces[d] lists the dimension-d faces (bitmasks), with faces[-1] == [0];
    boundary[d] holds one sparse row per d-face, a dict from the index of
    each (d-1)-face in faces[d-1] to its sign +-1.  d o d = 0 is asserted
    on these rows at construction.
    """

    __slots__ = ("faces", "boundary")

    def __init__(self, sigma: int, inside: list[int]):
        self.faces = _grow_faces(sigma, inside)
        self.boundary: dict[int, list[dict[int, int]]] = {}
        lower: dict[int, int] = {}
        for d, fs in self.faces.items():
            if d >= 0:
                rows = []
                for f in fs:
                    row = {}
                    for t, v in enumerate(bit_list(f)):
                        row[lower[f ^ (1 << v)]] = -1 if t & 1 else 1
                    rows.append(row)
                self.boundary[d] = rows
            lower = {f: i for i, f in enumerate(fs)}
        self._assert_square_zero()

    def _assert_square_zero(self):
        for d, rows in self.boundary.items():
            below = self.boundary.get(d - 1)
            if not below:
                continue
            for row in rows:
                acc: dict[int, int] = {}
                for j, coef in row.items():
                    for k, c2 in below[j].items():
                        acc[k] = acc.get(k, 0) + coef * c2
                if any(acc.values()):
                    raise RuntimeError("boundary composition is nonzero")

    def homology(self, field: FieldSpec) -> dict[int, int]:
        """Reduced homology dimensions over the field, omitting zeros."""
        ranks = {d: rank_over(field, rows) for d, rows in self.boundary.items()}
        out = {}
        for d, fs in self.faces.items():
            h = len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            if h:
                out[d] = h
        return out


def _grow_faces(sigma: int, inside: list[int]) -> dict[int, list[int]]:
    """Faces of the restriction to sigma keyed by dimension, -1 included.

    Faces grow level by level: a face grows only by vertices above its top
    one, and f + v is a face when no support s through v has s - v in f.
    """
    grow = []
    for v in iter_bits(sigma):
        bit = 1 << v
        grow.append((bit, [s & ~bit for s in inside if s & bit]))
    faces: dict[int, list[int]] = {}
    level = [(0, 0)]
    d = -1
    while level:
        faces[d] = [f for f, _ in level]
        nxt = []
        for f, first in level:
            outside = ~f
            for i in range(first, len(grow)):
                bit, rests = grow[i]
                for t in rests:
                    if not t & outside:
                        break
                else:
                    nxt.append((f | bit, i + 1))
        level = nxt
        d += 1
    return faces


def build_strand(ideal: MonomialIdeal, sigma: int) -> StrandComplex:
    """The Stanley-Reisner complex of a squarefree ideal restricted to sigma;
    beta_{i,sigma}(S/I) is the rank of its homology in dimension |sigma|-i-1."""
    if not ideal.is_squarefree():
        raise ValueError("Hochster's formula needs a squarefree ideal")
    if sigma < 0 or sigma >> ideal.nvars:
        raise ValueError(f"sigma {sigma:#b} is not a subset of the {ideal.nvars} variables")
    return StrandComplex(sigma, [s for s in ideal.supports() if s & ~sigma == 0])


class _SupportEngine:
    """Homology vectors of ideal-restriction complexes, by folding, join decomposition
    and link/deletion splitting."""

    def __init__(self, ideal: MonomialIdeal, field: FieldSpec):
        self.field = field
        self.singletons = 0
        self.supports = []
        # nbr[v]: the partners of v in pair supports
        self.nbr = [0] * ideal.nvars
        self.wide = []  # the supports of three or more vertices
        for s in ideal.supports():
            size = s.bit_count()
            if size == 1:
                self.singletons |= s
                continue
            self.supports.append(s)
            if size == 2:
                low = s & -s
                self.nbr[low.bit_length() - 1] |= s ^ low
                self.nbr[s.bit_length() - 1] |= low
            else:
                self.wide.append(s)
        # wide_tests[w] pairs t = s - w, for each wide support s containing w,
        # with the vertices x such that some support r containing x has r - x
        # inside t; restricted to an active set containing s, those are
        # exactly the x that pass the domination test at s. For a pair
        # s = {w, u} they are nbr[u]: a support r has r - t of at most one
        # vertex only when r = {u, x}
        self.wide_tests: list[list[tuple[int, int]]] = [[] for _ in range(ideal.nvars)]
        for s in self.wide:
            for w in iter_bits(s):
                t = s & ~(1 << w)
                dom = 0
                for r in self.supports:
                    d = r & ~t
                    if d & (d - 1) == 0:
                        dom |= d
                self.wide_tests[w].append((t, dom))
        self._memo: dict[int, dict[int, int]] = {}
        self._shared: dict[tuple, dict[int, int]] = {}

    def walk(self) -> list[int]:
        """Compute the vector of every union of supports, 0 included, and
        return those active masks, once each and every submask before its
        supersets.

        The vertices in some support are decided in increasing order. A node
        has decided the first ``start`` of them: it carries the chosen set,
        the union of the supports inside it, as a mask over support indices
        the supports still alive (no decided vertex left out, top vertex not
        yet decided), and a fold witness (x, w), bits with x dominated by w
        in the chosen set, or (0, 0). A covered node stores its vector, then
        grows the chosen set by the vertex v at one position p >= start,
        leaving out the vertices between; a branch is cut once some chosen,
        uncovered vertex has no alive support left. v is above every chosen
        vertex, so the supports it completes are the pairs {u, v} with u
        chosen and the alive wide supports whose top vertex is v; only those
        can break the witness.
        """
        sups = self.supports
        nbr = self.nbr
        memo = self._memo
        shared = self._shared
        through = [0] * len(nbr)  # one support-index mask per variable
        tops = [0] * len(nbr)  # per variable v, the supports whose top vertex is v
        wide_tops: list[list[tuple[int, int]]] = [[] for _ in nbr]
        for j, s in enumerate(sups):
            for v in iter_bits(s):
                through[v] |= 1 << j
            top = s.bit_length() - 1
            tops[top] |= 1 << j
            if s.bit_count() > 2:
                wide_tops[top].append((1 << j, s))
        dom_at = {}  # (wide support, bit of w in it) -> its domination mask
        for w, tests in enumerate(self.wide_tests):
            for t, dom in tests:
                dom_at[t | 1 << w, 1 << w] = dom
        verts = [v for v, thr in enumerate(through) if thr]
        walked = []
        stack = [(0, 0, 0, (1 << len(sups)) - 1, 0, 0)]
        while stack:
            start, chosen, covered, alive, xb, wb = stack.pop()
            pending = chosen & ~covered
            if not pending:
                if not xb:
                    xb, wb = self._fold(chosen)
                if xb:
                    # strong collapse; the target's value is already shared
                    known = memo.get(chosen ^ xb)
                    memo[chosen] = known if known is not None else self.vector(chosen ^ xb)
                else:
                    out = self._join(chosen)
                    memo[chosen] = shared.setdefault(tuple(sorted(out.items())), out)
                walked.append(chosen)
            # children are pushed in increasing p, so the largest p, whose
            # set leaves out the most vertices, is explored first
            for p in range(start, len(verts)):
                v = verts[p]
                hit = alive & through[v]
                if not hit:
                    continue
                vb = 1 << v
                near = nbr[v]
                cov = covered
                if near & chosen:
                    cov |= near & chosen | vb
                # N(w) inside N(x) breaks only by a new support through w
                x, w = xb, wb
                if near & w and not near & x:
                    x = w = 0
                for b, s in wide_tops[v]:
                    if alive & b:
                        cov |= s
                        if s & w and not dom_at[s, w] & x:
                            x = w = 0
                stack.append((p + 1, chosen | vb, cov, alive & ~tops[v], x, w))
                # later siblings leave v out: its supports die, and a chosen
                # vertex that loses its last one ends the loop
                alive ^= hit
                rest = pending
                while rest:
                    low = rest & -rest
                    if not alive & through[low.bit_length() - 1]:
                        break
                    rest ^= low
                if rest or not alive:
                    break
        return walked

    def _fold(self, sigma: int) -> tuple[int, int]:
        """A fold witness (x, w) of sigma as bits, x dominated by w (every
        facet containing x contains w), or (0, 0) when no vertex folds. The
        lowest w with a dominated vertex is taken, and its lowest x."""
        nbr = self.nbr
        tests = self.wide_tests
        rest = sigma
        while rest:
            wb = rest & -rest
            rest ^= wb
            w = wb.bit_length() - 1
            cand = sigma ^ wb
            part = nbr[w] & sigma
            while part:
                low = part & -part
                part ^= low
                cand &= nbr[low.bit_length() - 1]
                if not cand:
                    break
            else:
                for t, dom in tests[w]:
                    if t & ~sigma == 0:
                        cand &= dom
                        if not cand:
                            break
                if cand:
                    return cand & -cand, wb
        return 0, 0

    def vector(self, sigma: int) -> dict[int, int]:
        """Reduced homology of the restriction to sigma, as {dimension: rank}.

        On a miss the restriction is found to be a cone, or else folded,
        joined or split. The returned dict is shared between equal results
        and must not be mutated.
        """
        if self.singletons:
            sigma &= ~self.singletons
        # otherwise the caller's own int object is the key; a copy per key
        # would add about a tenth to a sparse table's peak memory
        memo = self._memo
        known = memo.get(sigma)
        if known is not None:
            return known
        union = 0
        for s in self.supports:
            if s & ~sigma == 0:
                union |= s
        if sigma & ~union:
            out = {}  # a vertex in no support inside sigma is a cone apex
        else:
            xb = self._fold(sigma)[0]
            if xb:
                # strong collapse; the target's value is already shared
                known = memo[sigma] = self.vector(sigma ^ xb)
                return known
            out = self._join(sigma)
        known = memo[sigma] = self._shared.setdefault(tuple(sorted(out.items())), out)
        return known

    def _join(self, active: int) -> dict[int, int]:
        """Join of the components of the support graph, or the split of a
        connected restriction. No component (active = 0) leaves {empty face}."""
        nbr = self.nbr
        wide = [s for s in self.wide if s & ~active == 0]
        comps = []
        left = active
        while left:
            comp = todo = left & -left
            while todo:
                low = todo & -todo
                grown = comp | nbr[low.bit_length() - 1] & active
                for s in wide:
                    if s & low:
                        grown |= s
                todo = todo ^ low | grown & ~comp
                comp = grown
            comps.append(comp)
            left &= ~comp
        if len(comps) == 1:
            return self._split(active, wide)
        out = {-1: 1}
        for comp in comps:
            part = self.vector(comp)
            if not part:
                return {}
            nxt: dict[int, int] = {}
            for da, ra in out.items():
                for db, rb in part.items():
                    d = da + db + 1
                    nxt[d] = nxt.get(d, 0) + ra * rb
            out = nxt
        return out

    def _split(self, active: int, wide: list[int]) -> dict[int, int]:
        """Link/deletion split of a connected restriction at a pair-only vertex,
        falling back to the chain complex when two tries overlap; ``wide``
        lists the wide supports inside active.

        v is pair-only when every support through v is a pair, so the faces
        through v are v plus a face missing N[v]: Delta = B u v*A with
        B = Delta|(active - v), A = Delta|(active - N[v]) and B n v*A = A.
        The cone is acyclic, so when A and B share no nonzero degree every map
        H_d(A) -> H_d(B) is zero and Mayer-Vietoris gives h_d = B[d] + A[d-1].
        """
        nbr = self.nbr
        pair_only = active
        for s in wide:
            pair_only &= ~s
        # the pair-only vertices of largest degree, the lowest on ties
        tries = sorted((-(nbr[v] & active).bit_count(), v) for v in iter_bits(pair_only))
        for _, v in tries[:2]:
            bit = 1 << v
            b = self.vector(active & ~bit)
            a = self.vector(active & ~(nbr[v] & active | bit))
            if not any(d in b for d in a):
                out = dict(b)
                for d, rank in a.items():
                    out[d + 1] = out.get(d + 1, 0) + rank
                return dict(sorted(out.items()))
        return StrandComplex(active, [s for s in self.supports if s & ~active == 0]).homology(self.field)


def betti_table(
    ideal: MonomialIdeal,
    field: FieldSpec = GF2,
    subject: str = "quotient",
    max_vars: int = MAX_TABLE_VARS,
) -> BettiTable:
    """Full multigraded Betti table of S/I (or of I) by Hochster's formula."""
    if subject not in ("quotient", "ideal"):
        raise ValueError(f"subject must be 'quotient' or 'ideal', not {subject!r}")
    if not ideal.is_squarefree():
        raise ValueError("Hochster tables need a squarefree ideal")
    if ideal.nvars > max_vars:
        raise ResourceLimitError(
            f"{ideal.nvars} variables exceeds the table cap of {max_vars}; "
            "raise max_vars explicitly to override"
        )
    engine = _SupportEngine(ideal, field)
    memo = engine._memo
    carriers = [active for active in engine.walk() if memo[active]]
    if engine.singletons:
        # a singleton generator's variable is no vertex of the complex:
        # adding any of them to sigma keeps its homology
        carriers = [a | t for a in carriers for t in iter_subsets(engine.singletons)]
    carriers.sort()
    live = ~engine.singletons
    entries: dict[tuple[int, int], int] = {}
    for sigma in carriers:
        size = sigma.bit_count()
        for d, rank in memo[sigma & live].items():
            i = size - d - 1
            if 0 <= i:
                entries[(i, sigma)] = rank
    if subject == "ideal":
        shifted = {(i - 1, s): v for (i, s), v in entries.items() if i >= 1}
        return BettiTable("ideal", field, ideal.variables, shifted)
    return BettiTable("quotient", field, ideal.variables, entries)


def graph_betti_table(g: SimpleGraph, field: FieldSpec = GF2, **kw) -> BettiTable:
    return betti_table(edge_ideal(g), field=field, **kw)


def cover_betti_table(g: SimpleGraph, quotient: BettiTable) -> BettiTable:
    """Betti table of the cover ideal I(G)* itself (subject "ideal"), read off
    ``quotient``, the table of S/I(G), over the field of that table.

    By Hochster's dual formula, beta_{i,sigma}(I(G)*) is the dimension of
    H_{i-1} of the link of tau = V - sigma in Ind G. That link is
    Ind G[sigma'] with sigma' = V - N[tau] when tau is independent, and the
    entry is 0 otherwise. By Hochster's formula for S/I(G), the same
    homology is beta_{|sigma'|-i, sigma'}(S/I(G)). So every quotient entry
    (j, sigma') with value v becomes the cover entry (|sigma'| - j, V - tau)
    for each independent tau with V - N[tau] = sigma'. The independent sets
    are walked on an explicit stack that carries N[tau]; no cover ideal,
    engine or rank is needed. Entries come in increasing sigma and, within
    one sigma, decreasing i: the order of
    ``betti_table(cover_ideal(g), field, subject="ideal")``.
    """
    if g.edge_count() == 0:
        raise ValueError("edgeless graph: the dual of the zero ideal is the unit ideal")
    if quotient.subject != "quotient":
        raise ValueError(f"cover tables are read off a quotient table, not an {quotient.subject!r} table")
    if quotient.variables != tuple(g.labels):
        raise ValueError("the quotient table is not over the graph's variables")
    at: dict[int, list[tuple[int, int]]] = {}
    for (j, s), v in quotient.entries.items():
        at.setdefault(s, []).append((j, v))
    full = (1 << g.n) - 1
    found = []
    # (tau, N[tau], first vertex that may join tau)
    stack = [(0, 0, 0)]
    while stack:
        tau, closed, start = stack.pop()
        link = full & ~closed  # lk(tau) is Ind G[link]
        for j, v in at.get(link, ()):
            found.append((full & ~tau, link.bit_count() - j, v))
        for u in iter_bits(link >> start << start):
            stack.append((tau | 1 << u, closed | g.adj[u] | 1 << u, u + 1))
    found.sort(key=lambda e: (e[0], -e[1]))
    return BettiTable("ideal", quotient.field, quotient.variables, {(i, s): v for s, i, v in found})

