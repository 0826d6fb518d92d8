"""Model-theoretic measures on classes of finite structures.

Each kind of structure (finite sets, total orders, simple graphs, boron
trees) is a subclass of `Structure`, listed in `KINDS` under its `kind`
name, and a structure lives on the carrier 0..size-1.  A new kind defines

- `labelled(size)`, every structure of the kind on 0..size-1;
- `induced(elements)`, the substructure on the given elements, renumbered
  in the given order;
- `iso_key()`, equal exactly for isomorphic structures, and `key()`,
  equal exactly for equal structures (it gives `==` and hashing);
- `text()`, the canonical text key of measure tables;
- `max_size`, the largest size that `fraisse --check` accepts for the kind:
  every check on the kind finishes at it within about ten seconds.

From these the base class gives `relabel`, `restricts_to` (does the
structure, read along a map, give a target?), the isomorphism-class
representatives of `all_structures` (the first labelled structure of each
class), `embedding_maps` (injections filtered by `restricts_to`, in
lexicographic order; the automorphisms are the self-embeddings) and the
`completions` of a glued carrier that `enumerate_amalgamations` lists
(labelled structures filtered by `restricts_to` on both sides).  A kind may
override any of them with a fast path: graphs and boron trees compare edges
and quartets in `restricts_to`, graphs complete a carrier over its free
edges, and total orders take one representative per size, the combinations
of an order as embeddings and the merges of two chains as completions, so
they need no `labelled` and never list n! labelled orders.

A boron tree is a tree whose internal vertices all have valence three; its
leaves carry the quaternary relation "the geodesic through the first pair
meets the geodesic through the second pair", which determines the tree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, islice, permutations, product as iproduct

from .scalar import Poly, falling_factorial

# ---------------------------------------------------------------------------
# Structures


class Structure:
    """Base class: a finite relational structure with canonical forms; the
    module docstring lists what a kind defines and what it may override."""

    kind = "abstract"

    def __init__(self, size: int):
        self.size = size

    def relabel(self, perm) -> "Structure":
        """The isomorphic copy with element i renamed perm[i]: the structure
        induced along the inverse permutation."""
        return self.induced(tuple(sorted(range(self.size),
                                         key=perm.__getitem__)))

    def restricts_to(self, mapping, target: "Structure") -> bool:
        """Does the substructure on mapping[0], mapping[1], ... give exactly
        the target?"""
        return self.induced(tuple(mapping)) == target

    @classmethod
    def representatives(cls, size: int) -> list["Structure"]:
        """The first labelled structure of each isomorphism class."""
        return _first_of_each(cls.labelled(size), cls.iso_key)

    def embedding_maps(self, x: "Structure") -> list[tuple[int, ...]]:
        """The images of 0..size-1 under the embeddings into x."""
        return [m for m in permutations(range(x.size), self.size)
                if x.restricts_to(m, self)]

    def completions(self, yp: "Structure", ip_map, size: int
                    ) -> list["Structure"]:
        """All structures on 0..size-1 that give self on 0..self.size-1 and
        yp along ip_map."""
        own = range(self.size)
        return [s for s in self.labelled(size)
                if s.restricts_to(own, self) and s.restricts_to(ip_map, yp)]

    @cached_property
    def _identity(self):
        """The size and the key, which give `==` and the hash; computed
        once per structure."""
        return self.size, self.key()

    def __eq__(self, other):
        return type(self) is type(other) and self._identity == other._identity

    def __hash__(self):
        return hash((self.kind, *self._identity))

    def is_isomorphic(self, other) -> bool:
        return (type(self) is type(other) and self.size == other.size
                and self.iso_key() == other.iso_key())


class FiniteSet(Structure):
    kind = "set"
    max_size = 6

    @classmethod
    def labelled(cls, size):
        return [FiniteSet(size)]

    def iso_key(self):
        return ("set", self.size)

    def key(self):
        return ()

    def induced(self, elements):
        return FiniteSet(len(elements))

    def text(self):
        return f"set:{self.size}"

    def __repr__(self):
        return f"FiniteSet({self.size})"


class TotalOrder(Structure):
    """A total order on the carrier 0..size-1, given by `order`, the carrier
    listed smallest first; the default is the standard 0 < 1 < ... < size-1.
    All total orders of a size are isomorphic."""

    kind = "order"
    max_size = 9

    def __init__(self, size: int, order=None):
        super().__init__(size)
        self.order = tuple(range(size)) if order is None else tuple(order)

    @classmethod
    def representatives(cls, size):
        return [TotalOrder(size)]

    def embedding_maps(self, x):
        # the k-th least element of self goes to the c_k-th least of x
        return [tuple(image[v] for v in range(self.size))
                for image in (dict(zip(self.order, c))
                              for c in combinations(x.order, self.size))]

    def completions(self, yp, ip_map, size):
        # the merges of the two chains, which share the carrier elements in
        # ip_map below self.size; each lists the carrier smallest first, and
        # they are sorted by the tuple of positions of the carrier elements
        # 0, 1, ..., the inverse of that listing
        orders = list(_chain_merges(self.order,
                                    tuple(ip_map[v] for v in yp.order),
                                    set(range(self.size)) & set(ip_map)))
        orders.sort(key=lambda order: sorted(range(size),
                                             key=order.__getitem__))
        return [TotalOrder(size, order) for order in orders]

    def iso_key(self):
        return ("order", self.size)

    def key(self):
        return self.order

    def induced(self, elements):
        return TotalOrder(len(elements), sorted(
            range(len(elements)), key=lambda k: self.order.index(elements[k])))

    def text(self):
        return f"order:{self.size}"

    def __repr__(self):
        if self.order == tuple(range(self.size)):
            return f"TotalOrder({self.size})"
        return f"TotalOrder({self.size}, {self.order})"


def _chain_merges(xs, ys, shared):
    """The total orders on the union of two chains that extend both.  A
    shared element comes next only when it heads both chains."""
    if not xs and not ys:
        yield ()
        return
    a, b = xs[:1], ys[:1]
    if a and a == b:
        for rest in _chain_merges(xs[1:], ys[1:], shared):
            yield a + rest
        return
    if a and a[0] not in shared:
        for rest in _chain_merges(xs[1:], ys, shared):
            yield a + rest
    if b and b[0] not in shared:
        for rest in _chain_merges(xs, ys[1:], shared):
            yield b + rest


class Graph(Structure):
    kind = "graph"
    max_size = 5

    def __init__(self, size: int, edges):
        super().__init__(size)
        es = frozenset(frozenset(e) for e in edges)
        for e in es:
            if len(e) != 2 or not all(0 <= v < size for v in e):
                raise ValueError(f"bad edge {set(e)}")
        self.edges = es
        self._pairs = frozenset(p for a, b in map(tuple, es)
                                for p in ((a, b), (b, a)))

    @classmethod
    def labelled(cls, size):
        pairs = list(combinations(range(size), 2))
        return (Graph(size, [p for p, b in zip(pairs, bits) if b])
                for bits in iproduct((0, 1), repeat=len(pairs)))

    def restricts_to(self, mapping, target):
        return all(target.has_edge(a, b)
                   == self.has_edge(mapping[a], mapping[b])
                   for a, b in combinations(range(target.size), 2))

    def completions(self, yp, ip_map, size):
        # the pairs inside self or inside the image of yp are forced, the
        # others free
        ip_inv = {carrier: yv for yv, carrier in enumerate(ip_map)}
        forced, free = [], []
        for a, b in combinations(range(size), 2):
            in_x = a < self.size and b < self.size
            ya, yb = ip_inv.get(a), ip_inv.get(b)
            in_y = ya is not None and yb is not None
            if in_x and in_y and self.has_edge(a, b) != yp.has_edge(ya, yb):
                return []  # inconsistent identification
            if in_x:
                if self.has_edge(a, b):
                    forced.append((a, b))
            elif in_y:
                if yp.has_edge(ya, yb):
                    forced.append((a, b))
            else:
                free.append((a, b))
        return [Graph(size, forced + [p for p, b in zip(free, bits) if b])
                for bits in iproduct((0, 1), repeat=len(free))]

    def iso_key(self):
        return ("graph", self.size, _graph_canon(self.size, self.edges))

    def key(self):
        return self.edges

    def induced(self, elements):
        pos = {v: i for i, v in enumerate(elements)}
        keep = set(elements)
        return Graph(len(elements),
                     [frozenset((pos[a], pos[b])) for a, b in
                      (tuple(e) for e in self.edges) if a in keep and b in keep])

    def has_edge(self, a, b):
        return (a, b) in self._pairs

    def text(self):
        body = ",".join(f"{a}-{b}" for a, b in
                        _graph_canon(self.size, self.edges))
        return f"graph:{self.size}:{body}"

    def __repr__(self):
        return f"Graph({self.size}, {sorted(tuple(sorted(e)) for e in self.edges)})"


@lru_cache(maxsize=None)
def _graph_canon(size, edges):
    pairs = [tuple(e) for e in edges]
    return min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in pairs))
               for p in permutations(range(size)))


class BoronTree(Structure):
    """Stored as the underlying tree; carrier = leaves 0..size-1, internal
    vertices size..  Internal vertices must have valence exactly three."""

    kind = "boron"
    max_size = 7

    def __init__(self, size: int, edges):
        super().__init__(size)
        self.edges = frozenset(frozenset(e) for e in edges)
        self._adj = None
        self._paths = {}
        self._validate()

    def _validate(self):
        n = self.size
        if n <= 1:
            if self.edges:
                raise ValueError("tiny boron trees have no edges")
            return
        adj = self.adj()
        if len(self.edges) != len(adj) - 1:
            raise ValueError("not a tree")
        if any(len(adj[v]) != 1 for v in range(n)):
            raise ValueError("leaves must have degree one")
        if any(len(ws) != 3 for v, ws in adj.items() if v not in range(n)):
            raise ValueError("internal vertices must have valence three")
        seen, stack = set(), [0]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        if len(seen) != len(adj):
            raise ValueError("not connected")
        if len(adj) - n != n - 2:
            raise ValueError("wrong number of internal vertices")

    @classmethod
    def labelled(cls, size):
        return labeled_boron_trees(size)

    def adj(self):
        if self._adj is None:
            a = {}
            verts = {v for e in self.edges for v in e} | set(range(self.size))
            for v in verts:
                a[v] = set()
            for e in self.edges:
                x, y = tuple(e)
                a[x].add(y)
                a[y].add(x)
            self._adj = a
        return self._adj

    def _path(self, a, b):
        """The vertices of the geodesic from a to b."""
        key = (a, b) if a <= b else (b, a)
        hit = self._paths.get(key)
        if hit is None:
            adj, prev, stack = self.adj(), {a: None}, [a]
            while b not in prev:
                v = stack.pop()
                for w in adj[v]:
                    if w not in prev:
                        prev[w] = v
                        stack.append(w)
            hit, w = set(), b
            while w is not None:
                hit.add(w)
                w = prev[w]
            hit = self._paths[key] = frozenset(hit)
        return hit

    def relation(self, w, x, y, z) -> bool:
        """True when the geodesic through w,x meets the one through y,z."""
        return not self._path(w, x).isdisjoint(self._path(y, z))

    def key(self):
        return tuple(((w, x, y, z), (self.relation(w, x, y, z),
                                     self.relation(w, y, x, z),
                                     self.relation(w, z, x, y)))
                     for w, x, y, z in combinations(range(self.size), 4))

    def iso_key(self):
        return ("boron", self.size, _tree_canon(self))

    def restricts_to(self, mapping, target):
        """Compares the quartet relations, so builds no Steiner tree."""
        for w, a, b, c in combinations(range(target.size), 4):
            mw, ma, mb, mc = mapping[w], mapping[a], mapping[b], mapping[c]
            if (target.relation(w, a, b, c) != self.relation(mw, ma, mb, mc)
                    or target.relation(w, b, a, c)
                    != self.relation(mw, mb, ma, mc)
                    or target.relation(w, c, a, b)
                    != self.relation(mw, mc, ma, mb)):
                return False
        return True

    def induced(self, elements):
        """Sub-boron-tree on a leaf subset: Steiner tree + suppression of
        valence-two internal vertices."""
        keep = list(elements)
        if len(keep) <= 1:
            return BoronTree(len(keep), [])
        # union of pairwise paths
        verts = set()
        for a, b in combinations(keep, 2):
            verts |= self._path(a, b)
        adj = self.adj()
        return _boron_from_adjacency({v: adj[v] & verts for v in verts}, keep)

    def text(self):
        return f"boron:{_tree_canon(self)}"

    def __repr__(self):
        return (f"BoronTree({self.size}, "
                f"{sorted(tuple(sorted(e)) for e in self.edges)})")

    @staticmethod
    def from_newick(text: str) -> "BoronTree":
        """Parenthesized leaf topology, e.g. "((,),(,))" or "((a,b),c,(d,e))";
        leaf names are ignored, only the shape matters.  The rooted shape is
        normalized (degree-two vertices suppressed) to an unrooted boron tree."""
        adj, leaves = {}, []
        pos = 0

        def parse(parent):
            nonlocal pos
            v = len(adj)
            adj[v] = set()
            if parent is not None:
                adj[v].add(parent)
                adj[parent].add(v)
            if pos < len(text) and text[pos] == "(":
                pos += 1
                parse(v)
                while pos < len(text) and text[pos] == ",":
                    pos += 1
                    parse(v)
                if pos >= len(text) or text[pos] != ")":
                    raise ValueError("unbalanced parentheses in tree text")
                pos += 1
            else:
                leaves.append(v)
                pos += re.match(r"[\w.]*", text[pos:]).end()

        parse(None)
        if pos != len(text.strip()):
            raise ValueError("trailing characters in tree text")
        return _boron_from_adjacency(adj, leaves)


def _boron_from_adjacency(adj, leaves) -> BoronTree:
    """The boron tree of a tree given by adjacency sets (consumed): drop
    non-leaf vertices of degree <= 1, suppress those of degree two, and
    number the leaves first, in the given order."""
    leaf_set = set(leaves)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in leaf_set or len(adj[v]) > 2:
                continue
            nbrs = adj.pop(v)
            for w in nbrs:
                adj[w].discard(v)
            if len(nbrs) == 2:
                a, b = nbrs
                adj[a].add(b)
                adj[b].add(a)
            changed = True
    names = {v: i for i, v in enumerate(leaves)}
    for v in adj:
        names.setdefault(v, len(names))
    return BoronTree(len(leaves), {frozenset((names[v], names[w]))
                                   for v, ws in adj.items() for w in ws})


def _tree_canon(t: BoronTree):
    """AHU canonical string of the unrooted tree, rooted at its center."""
    n = t.size
    if n == 0:
        return "()"
    if n == 1:
        return "(leaf)"
    adj = {v: set(ws) for v, ws in t.adj().items()}
    # peel leaves to find the center
    deg = {v: len(ws) for v, ws in adj.items()}
    layer = [v for v in adj if deg[v] <= 1]
    removed = set()
    remaining = len(adj)
    while remaining > 2:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for w in adj[v]:
                if w not in removed:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in adj if v not in removed]

    def canon(v, parent):
        kids = sorted(canon(w, v) for w in adj[v] if w != parent)
        tag = "L" if v < n else "B"
        return tag + "(" + ",".join(kids) + ")"

    if len(centers) == 1:
        return canon(centers[0], None)
    a, b = centers
    return "E[" + ",".join(sorted([canon(a, b), canon(b, a)])) + "]"


KINDS = {cls.kind: cls for cls in (FiniteSet, TotalOrder, Graph, BoronTree)}


# ---------------------------------------------------------------------------
# Embeddings


class EmbeddingMap:
    """An injective map inducing an isomorphism with the substructure."""

    __slots__ = ("src", "dst", "mapping")

    def __init__(self, src: Structure, dst: Structure, mapping):
        self.src = src
        self.dst = dst
        self.mapping = tuple(mapping)
        if len(set(self.mapping)) != src.size:
            raise ValueError("embedding must be injective")

    def __repr__(self):
        return f"EmbeddingMap({self.src!r} -> {self.dst!r}, {self.mapping})"

    def __eq__(self, other):
        return (isinstance(other, EmbeddingMap)
                and (self.src, self.dst, self.mapping)
                == (other.src, other.dst, other.mapping))

    def __hash__(self):
        return hash((self.src, self.dst, self.mapping))

    def compose(self, inner: "EmbeddingMap") -> "EmbeddingMap":
        if inner.dst != self.src:
            raise ValueError("embedding composition mismatch")
        return EmbeddingMap(inner.src, self.dst,
                            [self.mapping[v] for v in inner.mapping])

    @staticmethod
    def identity(s: Structure) -> "EmbeddingMap":
        return EmbeddingMap(s, s, range(s.size))


_emb_cache: dict = {}


def embeddings(y: Structure, x: Structure) -> list[EmbeddingMap]:
    """All embeddings of y into x (induced-substructure maps)."""
    if type(y) is not type(x):
        raise TypeError("embeddings need structures of one plugin kind")
    hit = _emb_cache.get((y, x))
    if hit is None:
        hit = _emb_cache[(y, x)] = [EmbeddingMap(y, x, m)
                                    for m in y.embedding_maps(x)]
    return hit


def count_embeddings(y: Structure, gamma: Structure) -> int:
    return len(embeddings(y, gamma))


# ---------------------------------------------------------------------------
# Structure enumeration per kind


def all_structures(kind: str, size: int) -> list[Structure]:
    """Isomorphism-class representatives of the given size."""
    if kind not in KINDS:
        raise ValueError(f"unknown plugin kind {kind!r}")
    return KINDS[kind].representatives(size)


@lru_cache(maxsize=None)
def labeled_boron_trees(n: int) -> tuple[BoronTree, ...]:
    """All boron trees on the labeled leaf set 0..n-1, built by attaching
    leaf n-1 to every edge (the trees on at most two leaves directly)."""
    if n <= 1:
        return (BoronTree(n, []),)
    if n == 2:
        return (BoronTree(2, [(0, 1)]),)
    out = []
    for t in labeled_boron_trees(n - 1):
        # relabel internal vertices to start at n (one more leaf now)
        shift = {v: (v if v < n - 1 else v + 1)
                 for e in t.edges for v in e}
        edges = [tuple(shift[v] for v in e) for e in t.edges]
        verts = {v for e in edges for v in e}
        fresh = max(verts | {n - 1}) + 1
        for a, b in list(edges):
            # subdivide edge (a,b) with a new boron and hang leaf n-1 on it
            new_edges = [e for e in edges if set(e) != {a, b}]
            new_edges += [(a, fresh), (fresh, b), (fresh, n - 1)]
            out.append(BoronTree(n, new_edges))
    return tuple(out)


# ---------------------------------------------------------------------------
# Amalgamation


class Amalgam:
    """A jointly surjective completion of two embeddings out of a common
    structure, recorded with both legs."""

    __slots__ = ("structure", "into_from_yprime", "into_from_x")

    def __init__(self, structure, into_from_yprime, into_from_x):
        self.structure = structure
        self.into_from_yprime = into_from_yprime
        self.into_from_x = into_from_x

    def __repr__(self):
        return (f"Amalgam({self.structure!r}, i'={self.into_from_yprime.mapping},"
                f" j'={self.into_from_x.mapping})")


_amalgam_cache: dict = {}


def enumerate_amalgamations(i: EmbeddingMap, j: EmbeddingMap) -> list[Amalgam]:
    """All amalgamations of (i: Y -> X, j: Y -> Y'), one per isomorphism
    class.

    Identification matchings between X - i(Y) and Y' - j(Y) are enumerated;
    for a fixed matching, amalgam isomorphism forces the identity map, so
    distinct valid structures on the glued carrier are distinct amalgams.
    """
    if i.src != j.src:
        raise ValueError("amalgamation needs a common source")
    hit = _amalgam_cache.get((i, j))
    if hit is not None:
        return hit
    x, yp = i.dst, j.dst
    xr = [v for v in range(x.size) if v not in set(i.mapping)]
    ypr = [v for v in range(yp.size) if v not in set(j.mapping)]
    out = []
    for s in range(min(len(xr), len(ypr)) + 1):
        for xs in combinations(xr, s):
            for ys in permutations(ypr, s):
                ident = dict(zip(ys, xs))  # y' element -> x element
                out.extend(_amalgams_for_matching(i, j, ident))
    _amalgam_cache[(i, j)] = out
    return out


def _amalgams_for_matching(i, j, ident):
    x, yp = i.dst, j.dst
    # carrier: all of x, then the unidentified part of y'
    jp_map = list(range(x.size))
    ip_map = [None] * yp.size
    for k, v in enumerate(j.mapping):
        ip_map[v] = i.mapping[k]
    for v, xv in ident.items():
        ip_map[v] = xv
    nxt = x.size
    for v in range(yp.size):
        if ip_map[v] is None:
            ip_map[v] = nxt
            nxt += 1
    size = nxt
    return [Amalgam(structure, EmbeddingMap(yp, structure, ip_map),
                    EmbeddingMap(x, structure, jp_map))
            for structure in x.completions(yp, ip_map, size)]


# ---------------------------------------------------------------------------
# Candidate measures


class CandidateMeasure:
    """A rule assigning exact values to embedding classes (or, in R-measure
    form, to structure classes).  Values are constants or polynomials in t."""

    def __init__(self, name: str, kind: str, embedding_rule=None,
                 structure_rule=None):
        self.name = name
        self.kind = kind
        self.embedding_rule = embedding_rule
        self.structure_rule = structure_rule

    def ratio(self, emb: EmbeddingMap) -> tuple[Poly, Poly]:
        """The value of an embedding as (numerator, denominator): the
        embedding rule's value over 1, or in R-measure form the structure
        values of the target and of the source, which must not be zero."""
        if self.embedding_rule is not None:
            return _as_poly(self.embedding_rule(emb)), Poly.one()
        den = _as_poly(self.structure_rule(emb.src))
        if den.is_zero():
            raise ZeroDivisionError(
                f"{self.name}: structure value of the source is zero")
        return _as_poly(self.structure_rule(emb.dst)), den

    def of_structure(self, s: Structure) -> Poly:
        if self.structure_rule is None:
            raise ValueError(f"{self.name} has no structure (R-measure) form")
        return _as_poly(self.structure_rule(s))

    def perturbed(self, iso_key, value) -> "CandidateMeasure":
        """Negative control: override one structure class's value."""
        base = self.structure_rule

        def rule(s):
            if s.iso_key() == iso_key:
                return value
            return base(s)

        emb_rule = None
        if self.embedding_rule is not None:
            inner = self.embedding_rule

            def emb_rule(emb):
                if emb.dst.iso_key() == iso_key and emb.src.size < emb.dst.size:
                    return value
                return inner(emb)

        return CandidateMeasure(self.name + "-perturbed", self.kind,
                                embedding_rule=emb_rule,
                                structure_rule=rule if base else None)


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


def sets_nu_t() -> CandidateMeasure:
    """The symbolic falling-factorial measure on finite sets."""
    return CandidateMeasure(
        "sets-nu_t", "set",
        embedding_rule=lambda e: falling_factorial(e.src.size,
                                                   e.dst.size - e.src.size),
        structure_rule=lambda s: falling_factorial(0, s.size))


def orders_sign() -> CandidateMeasure:
    """(-1)^size on total orders (compact Euler characteristic)."""
    return CandidateMeasure(
        "orders-sign", "order",
        embedding_rule=lambda e: Poly.const((-1) ** (e.dst.size - e.src.size)),
        structure_rule=lambda s: Poly.const((-1) ** s.size))


def boron_mu() -> CandidateMeasure:
    """The regular boron measure: 3/2 on one leaf, 3(-1/2)^n for n >= 2."""

    def rule(s: Structure):
        n = s.size
        if n == 0:
            return Fraction(1)
        if n == 1:
            return Fraction(3, 2)
        return 3 * Fraction(-1, 2) ** n

    return CandidateMeasure("boron-mu", "boron", structure_rule=rule)


def boron_nu() -> CandidateMeasure:
    """The non-regular boron measure, defined on embeddings via the
    paired-leaf dichotomy and the small-tree table."""
    table = {(0, 1): 3, (1, 2): 2, (0, 2): 6, (2, 3): 1, (1, 3): 2, (0, 3): 6,
             (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}

    def rule(e: EmbeddingMap) -> Fraction:
        t, tp = e.src, e.dst
        n, np_ = t.size, tp.size
        if n <= 3:
            if np_ <= 3:
                return Fraction(table[(n, np_)])
            return Fraction(0)
        missing = [v for v in range(np_) if v not in set(e.mapping)]
        if _has_bad_vertex(tp, missing):
            return Fraction(0)
        return Fraction((-1) ** (np_ - n))

    return CandidateMeasure("boron-nu", "boron", embedding_rule=rule)


def _has_bad_vertex(tp: BoronTree, missing) -> bool:
    """Is there a paired leaf of the big tree among the missing leaves?"""
    adj = tp.adj()
    for v in missing:
        if not adj.get(v):
            continue
        boron = next(iter(adj[v]))
        if any(w != v and w < tp.size for w in adj[boron]):
            return True
    return False


def structure_text(s: Structure) -> str:
    """Canonical, isomorphism-invariant text key for a structure."""
    return s.text()


def candidate_from_table(name: str, kind: str, table) -> CandidateMeasure:
    """A candidate measure from a {canonical form: value} table (R-measure
    form: values are the measures of the structures themselves); values are
    integers or polynomial text such as "-3/4" or "t^2 - 1"."""
    if not isinstance(table, dict):
        raise ValueError("a table is an object {canonical form: value}")
    parsed = {}
    for key, value in table.items():
        if isinstance(value, str):
            try:
                parsed[key] = Poly.from_text(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"table entry {key!r}: {exc}") from exc
        elif isinstance(value, int) and not isinstance(value, bool):
            parsed[key] = Poly.const(value)
        else:
            raise ValueError(f"table entry {key!r} is {value!r}, not an "
                             "integer or polynomial text")

    def rule(s: Structure) -> Poly:
        key = structure_text(s)
        if key not in parsed:
            raise ValueError(f"table has no entry for {key!r}")
        return parsed[key]

    return CandidateMeasure(name, kind, structure_rule=rule)


def table_skeleton(kind: str, max_size: int) -> dict:
    """All canonical-form keys up to a size, ready to be filled with values."""
    out = {}
    for n in range(max_size + 1):
        for s in all_structures(kind, n):
            out[structure_text(s)] = None
    return out


# ---------------------------------------------------------------------------
# Measure verification


class Report:
    """Pass/fail result with one witness per failing check."""

    __slots__ = ("name", "ok", "failures", "counts")

    def __init__(self, name, ok, failures, counts=None):
        self.name = name
        self.ok = ok
        self.failures = failures
        self.counts = counts or {}

    def __repr__(self):
        status = "ok" if self.ok else f"FAILED {self.failures[:2]}"
        return f"Report({self.name}: {status}, counts={self.counts})"


def verify_measure(kind: str, candidate: CandidateMeasure, max_size: int
                   ) -> Report:
    """Exhaustively check iso-invariance, normalization, multiplicativity
    and the amalgamation identity on all spans whose largest amalgamation
    fits within max_size points; a failed report names the first failure."""
    structures = []
    for n in range(max_size + 1):
        structures.extend(all_structures(kind, n))
    counts = {"structures": len(structures)}

    def failed(witness):
        return Report(candidate.name, False, [witness], counts)

    # normalization and iso-invariance; the identities on embedding values
    # are checked multiplied through by their denominators, which in
    # R-measure form are polynomials
    for s in structures:
        num, den = candidate.ratio(EmbeddingMap.identity(s))
        if num != den:
            return failed(("normalization", repr(s)))
        for perm in islice(permutations(range(s.size)), 6):
            sp = s.relabel(perm)
            if not sp.is_isomorphic(s):
                return failed(("relabel broke isomorphism", repr(s), perm))

    # multiplicativity over composable pairs
    n_mult = 0
    for z in structures:
        for y in structures:
            if y.size < z.size:
                continue
            for x in structures:
                if x.size < y.size:
                    continue
                for jm in _embeddings_upto_auts(z, y, _auts(z)):
                    for im in _embeddings_upto_auts(y, x, _auts(y)):
                        num, den = candidate.ratio(im.compose(jm))
                        num_i, den_i = candidate.ratio(im)
                        num_j, den_j = candidate.ratio(jm)
                        n_mult += 1
                        if num * den_i * den_j != num_i * num_j * den:
                            return failed(("multiplicativity", repr(z),
                                           repr(y), repr(x), im.mapping,
                                           jm.mapping))
    counts["multiplicativity"] = n_mult

    # amalgamation identity over deduplicated spans
    n_amalg = 0
    for y, i, j in _span_representatives(kind, structures, max_size):
        amalgams = enumerate_amalgamations(i, j)
        num_i, den_i = candidate.ratio(i)
        num, den = Poly.zero(), Poly.one()  # the sum over the amalgams
        for am in amalgams:
            n, d = candidate.ratio(am.into_from_yprime)
            num, den = (num + n, den) if d == den else (num * d + n * den,
                                                        den * d)
        n_amalg += 1
        if num_i * den != num * den_i:
            return failed(("amalgamation", repr(i.dst), repr(y),
                           repr(j.dst), i.mapping, j.mapping, len(amalgams)))
        if candidate.structure_rule is not None:
            # R-measure form of the same identity
            vx = candidate.of_structure(i.dst)
            vyp = candidate.of_structure(j.dst)
            vy = candidate.of_structure(y)
            total = Poly.zero()
            for am in amalgams:
                total = total + candidate.of_structure(am.structure)
            if vx * vyp != vy * total:
                return failed(("r-amalgamation", repr(i.dst), repr(y),
                               repr(j.dst)))
    counts["amalgamation-instances"] = n_amalg

    return Report(candidate.name, True, [], counts)


_aut_cache: dict = {}
_upto_cache: dict = {}


def _auts(s: Structure):
    """The automorphisms of s, its self-embeddings."""
    hit = _aut_cache.get(s)
    if hit is None:
        hit = _aut_cache[s] = tuple(e.mapping for e in embeddings(s, s))
    return hit


def _embeddings_upto_auts(y: Structure, x: Structure, right):
    """One embedding per double coset of Aut(x) and the group right of
    automorphisms of y."""
    hit = _upto_cache.get((y, x, right))
    if hit is not None:
        return hit
    auts_x = _auts(x)
    seen, out = set(), []
    for e in embeddings(y, x):
        if e.mapping in seen:
            continue
        out.append(e)
        for ax in auts_x:
            for ay in right:
                seen.add(tuple(ax[e.mapping[ay[v]]] for v in range(y.size)))
    _upto_cache[(y, x, right)] = out
    return out


def _stabiliser(i: EmbeddingMap):
    """The automorphisms a of the source with i.a in Aut(target).i."""
    orbit = {tuple(ax[v] for v in i.mapping) for ax in _auts(i.dst)}
    return tuple(a for a in _auts(i.src)
                 if tuple(i.mapping[v] for v in a) in orbit)


_span_cache: dict = {}


def _span_representatives(kind, structures, max_size):
    """Spans (i: Y -> X, j: Y -> Y') with #X + #Y' - #Y <= max_size, one
    per class under (i, j) ~ (a_X.i.a_Y, a_Y'.j.a_Y): i up to Aut(X) and
    Aut(Y), then j up to Aut(Y') and the a_Y that keep i's class."""
    cache_key = (kind, max_size, tuple(s.iso_key() for s in structures))
    hit = _span_cache.get(cache_key)
    if hit is not None:
        return hit
    out = _span_cache[cache_key] = [
        (y, i, j) for y in structures for x in structures
        for yp in structures
        if y.size <= min(x.size, yp.size)
        and x.size + yp.size - y.size <= max_size
        for i in _embeddings_upto_auts(y, x, _auts(y))
        for j in _embeddings_upto_auts(y, yp, _stabiliser(i))]
    return out


def _first_of_each(items, key):
    """The first item of each key, in order of first appearance."""
    firsts = {}
    for item in items:
        firsts.setdefault(key(item), item)
    return list(firsts.values())


# ---------------------------------------------------------------------------
# Regularity


def check_S_regular(gamma: Structure, family) -> tuple[bool, tuple | None]:
    """All fibers of restriction maps between embedding sets have equal
    cardinality, for every embedding between members of the family."""
    for y in family:
        for yp in family:
            if yp.size < y.size:
                continue
            for i in embeddings(y, yp):
                by_restriction = {}
                for phi in embeddings(yp, gamma):
                    key = tuple(phi.mapping[v] for v in i.mapping)
                    by_restriction[key] = by_restriction.get(key, 0) + 1
                base = len(embeddings(y, gamma))
                sizes = set(by_restriction.values())
                if len(by_restriction) < base:
                    sizes.add(0)
                if len(sizes) > 1:
                    return False, (repr(y), repr(yp), i.mapping, sorted(sizes))
    return True, None


def s_regular_identity(gamma: Structure, i: EmbeddingMap, j: EmbeddingMap
                       ) -> tuple[int, int]:
    """Both sides of the embedding-count identity attached to a span."""
    lhs = count_embeddings(i.dst, gamma) * count_embeddings(j.dst, gamma)
    rhs = count_embeddings(i.src, gamma) * sum(
        count_embeddings(am.structure, gamma)
        for am in enumerate_amalgamations(i, j))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Boron tree witnesses


def boron_theta_witness() -> Report:
    """Evaluate the six named inclusion classes under both boron measures,
    check the linear expressions in c, the quadratic relation of the class
    algebra and the product identity that forces it."""
    t = {n: all_structures("boron", n)[0] for n in range(6)}
    # the 5-leaf chain: name its leaves
    t5 = t[5]
    adj = t5.adj()
    borons = sorted(v for v in adj if v >= 5)
    mid = next(b for b in borons
               if sum(1 for w in adj[b] if w >= 5) == 2)
    q_leaf = next(w for w in adj[mid] if w < 5)
    p_leaf = next(w for w in adj[next(b for b in borons if b != mid)]
                  if w < 5)

    def incl(small: BoronTree, big: BoronTree, avoid=()):
        for e in embeddings(small, big):
            missing = set(range(big.size)) - set(e.mapping)
            if avoid and missing != set(avoid):
                continue
            return e
        raise RuntimeError("no inclusion found")

    alpha_embs = {
        "a1": incl(t[0], t[1]),
        "a2": incl(t[1], t[2]),
        "a3": incl(t[2], t[3]),
        "a4": incl(t[3], t[4]),
        "a5p": incl(t[4], t5, avoid=(p_leaf,)),
        "a5q": incl(t[4], t5, avoid=(q_leaf,)),
    }
    failures = []
    for name, measure, c in [("mu", boron_mu(), Fraction(-1, 2)),
                             ("nu", boron_nu(), Fraction(0))]:
        vals = {}
        for k, e in alpha_embs.items():
            num, den = measure.ratio(e)
            vals[k] = num.constant() / den.constant()
        expect = {"a1": 3 * c + 3, "a2": 3 * c + 2, "a3": 3 * c + 1,
                  "a4": c, "a5p": c, "a5q": -1 - c}
        for k in vals:
            if vals[k] != expect[k]:
                failures.append((name, k, str(vals[k]), str(expect[k])))
        if vals["a4"] * vals["a5p"] != vals["a4"] * vals["a5q"]:
            failures.append((name, "a4*a5p != a4*a5q"))
        if c * (2 * c + 1) != 0:
            failures.append((name, "c(2c+1) != 0"))
    return Report("boron-theta-witness", not failures, failures)


# ---------------------------------------------------------------------------
# Rado graph invariants


def rado_invariant_check(table, max_vertices: int) -> Report:
    """Check the edge-contraction identity for a graph invariant: for every
    graph and every edge (x, y),
        nu(G_x) nu(G_y) / nu(G_xy) = c_xy nu(G_x) + nu(G) + nu(G'),
    with c_xy = 1 exactly when swapping x and y fixes the rest of the graph,
    and G' the graph with that edge removed."""
    failures = []
    n_checked = 0
    for n in range(2, max_vertices + 1):
        for g in all_structures("graph", n):
            for e in g.edges:
                a, b = tuple(e)
                g_a = g.induced(tuple(v for v in range(n) if v != a))
                g_b = g.induced(tuple(v for v in range(n) if v != b))
                g_ab = g.induced(tuple(v for v in range(n) if v not in (a, b)))
                g_cut = Graph(n, [x for x in g.edges if x != e])
                na, nb = table(g_a), table(g_b)
                nab = table(g_ab)
                if nab == 0:
                    return Report("rado-invariant", False,
                                  [("zero table entry", repr(g_ab))])
                c = 1 if _indistinguishable(g, a, b) else 0
                lhs = Fraction(na) * Fraction(nb) / Fraction(nab)
                rhs = c * Fraction(na) + Fraction(table(g)) + Fraction(table(g_cut))
                n_checked += 1
                if lhs != rhs:
                    failures.append((repr(g), (a, b), str(lhs), str(rhs)))
                    return Report("rado-invariant", False, failures,
                                  {"checked": n_checked})
    return Report("rado-invariant", True, [], {"checked": n_checked})


def _indistinguishable(g: Graph, a, b) -> bool:
    na = {v for v in range(g.size) if v not in (a, b) and g.has_edge(a, v)}
    nb = {v for v in range(g.size) if v not in (a, b) and g.has_edge(b, v)}
    return na == nb
