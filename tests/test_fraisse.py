from fractions import Fraction
from math import comb, factorial

import pytest

from oligocat.fraisse import (BoronTree, CandidateMeasure, EmbeddingMap,
                              FiniteSet, Graph, TotalOrder, all_structures,
                              boron_mu, boron_nu, boron_theta_witness,
                              check_S_regular, count_embeddings, embeddings,
                              enumerate_amalgamations, labeled_boron_trees,
                              orders_sign, rado_invariant_check,
                              s_regular_identity, sets_nu_t, structure_text,
                              verify_measure)
from oligocat.scalar import Poly


def test_structure_enumeration():
    assert len(all_structures("graph", 3)) == 4
    assert len(all_structures("graph", 4)) == 11
    assert [len(all_structures("boron", n)) for n in range(7)] \
        == [1, 1, 1, 1, 1, 1, 2]
    assert len(labeled_boron_trees(5)) == 15
    assert len(labeled_boron_trees(6)) == 105


def test_boron_tree_validation():
    with pytest.raises(ValueError):
        BoronTree(4, [(0, 4), (1, 4), (2, 4), (3, 4)])  # valence four
    t4 = all_structures("boron", 4)[0]
    assert t4.size == 4


def test_boron_relation_recovers_shape():
    # the two 6-leaf shapes are distinguished by the relation alone
    a, b = all_structures("boron", 6)
    assert a.iso_key() != b.iso_key()
    assert a.key() != b.key()


def test_boron_induced_substructure_commutes():
    # induced sub-boron-tree relation matches the restricted relation
    from itertools import combinations
    for t in all_structures("boron", 6):
        for keep in list(combinations(range(6), 4))[:6]:
            small = t.induced(keep)
            for quad in combinations(range(4), 4):
                w, x, y, z = quad
                assert (small.relation(w, x, y, z)
                        == t.relation(keep[w], keep[x], keep[y], keep[z]))


def test_boron_newick_parse():
    t4 = BoronTree.from_newick("((a,b),(c,d))")
    assert t4.is_isomorphic(all_structures("boron", 4)[0])
    t5 = BoronTree.from_newick("((,),,(,))")
    assert t5.is_isomorphic(all_structures("boron", 5)[0])


def test_embedding_counts():
    assert count_embeddings(FiniteSet(2), FiniteSet(5)) == 20
    k3 = Graph(3, [frozenset((0, 1)), frozenset((1, 2)), frozenset((0, 2))])
    k2 = Graph(2, [frozenset((0, 1))])
    assert count_embeddings(k2, k3) == 6
    assert count_embeddings(TotalOrder(2), TotalOrder(4)) == 6
    # boron: T3 embeds into T4 in all ordered ways
    t3 = all_structures("boron", 3)[0]
    t4 = all_structures("boron", 4)[0]
    assert count_embeddings(t3, t4) == 24


def test_amalgam_orders_example():
    y, x, yp = TotalOrder(1), TotalOrder(2), TotalOrder(2)
    i = EmbeddingMap(y, x, (0,))
    j = EmbeddingMap(y, yp, (0,))
    assert len(enumerate_amalgamations(i, j)) == 3


def test_amalgam_set_counts():
    for l in (0, 1, 2):
        for m in (1, 2):
            for n in (1, 2):
                i = EmbeddingMap(FiniteSet(l), FiniteSet(l + m), range(l))
                j = EmbeddingMap(FiniteSet(l), FiniteSet(l + n), range(l))
                by_size = {}
                for am in enumerate_amalgamations(i, j):
                    by_size[am.structure.size] = by_size.get(
                        am.structure.size, 0) + 1
                for s in range(min(m, n) + 1):
                    assert (by_size.get(l + n + m - s, 0)
                            == comb(n, s) * comb(m, s) * factorial(s))


def test_amalgam_boron_case_3():
    t2 = all_structures("boron", 2)[0]
    t3 = all_structures("boron", 3)[0]
    i = embeddings(t2, t3)[0]
    assert len(enumerate_amalgamations(i, i)) == 4


def test_verify_sets_symbolic():
    rep = verify_measure("set", sets_nu_t(), 4)
    assert rep.ok, rep.failures
    rep = verify_measure("set", sets_nu_t(), 5)
    assert rep.ok, rep.failures


def test_verify_orders():
    rep = verify_measure("order", orders_sign(), 5)
    assert rep.ok, rep.failures


def test_verify_boron_measures():
    assert verify_measure("boron", boron_mu(), 6).ok
    assert verify_measure("boron", boron_nu(), 6).ok


def test_boron_theta_witness():
    rep = boron_theta_witness()
    assert rep.ok, rep.failures


def test_negative_controls():
    # one perturbed entry in each built-in produces a concrete witness
    bad = sets_nu_t().perturbed(FiniteSet(3).iso_key(), Poly.const(99))
    rep = verify_measure("set", bad, 4)
    assert not rep.ok and rep.failures[0][0] == "multiplicativity"

    bad = orders_sign().perturbed(TotalOrder(3).iso_key(), Poly.const(2))
    rep = verify_measure("order", bad, 5)
    assert not rep.ok and rep.failures[0][0] == "multiplicativity"

    bad = boron_mu().perturbed(all_structures("boron", 5)[0].iso_key(),
                               Fraction(1, 7))
    rep = verify_measure("boron", bad, 6)
    assert not rep.ok and rep.failures[0][0] == "amalgamation"

    bad = boron_nu().perturbed(all_structures("boron", 5)[0].iso_key(),
                               Fraction(3))
    rep = verify_measure("boron", bad, 6)
    assert not rep.ok and rep.failures[0][0] == "multiplicativity"

    const1 = CandidateMeasure("const-1", "graph",
                              embedding_rule=lambda e: Poly.one(),
                              structure_rule=lambda s: Poly.one())
    rep = verify_measure("graph", const1, 4)
    assert not rep.ok and rep.failures[0][0] == "amalgamation"


def test_verify_measure_witnesses(monkeypatch):
    """The checks that fire before multiplicativity, and the R-measure
    form of the amalgamation identity, each name their own witness."""
    two = CandidateMeasure("two", "set", embedding_rule=lambda e: 2)
    assert verify_measure("set", two, 3).failures \
        == [("normalization", "FiniteSet(0)")]

    # an R-measure form 2^n that disagrees with sets_nu_t's embedding rule
    mixed = CandidateMeasure("mixed", "set",
                             embedding_rule=sets_nu_t().embedding_rule,
                             structure_rule=lambda s: 2 ** s.size)
    rep = verify_measure("set", mixed, 3)
    assert not rep.ok and rep.failures[0][0] == "r-amalgamation"

    monkeypatch.setattr(Graph, "relabel", lambda g, perm: Graph(g.size, []))
    one = CandidateMeasure("one", "graph", embedding_rule=lambda e: 1)
    assert verify_measure("graph", one, 3).failures \
        == [("relabel broke isomorphism", "Graph(2, [(0, 1)])", (0, 1))]


def test_rado_invariant():
    rep = rado_invariant_check(lambda g: 1, 3)
    assert not rep.ok and rep.failures
    # the single-edge identity, with a manual table satisfying it
    k2 = Graph(2, [frozenset((0, 1))])
    vals = {Graph(1, []).iso_key(): Fraction(2),
            Graph(0, []).iso_key(): Fraction(1),
            k2.iso_key(): Fraction(1),
            Graph(2, []).iso_key(): Fraction(1)}
    rep = rado_invariant_check(lambda g: vals.get(g.iso_key(), 1), 2)
    assert rep.ok


def test_s_regularity():
    assert check_S_regular(FiniteSet(6),
                           [FiniteSet(1), FiniteSet(2), FiniteSet(3)])[0]
    p3 = Graph(3, [frozenset((0, 1)), frozenset((1, 2))])
    ok, witness = check_S_regular(p3, [Graph(1, []),
                                       Graph(2, [frozenset((0, 1))])])
    assert not ok and witness
    assert check_S_regular(FiniteSet(6), [])[0]


def test_s_regular_identity():
    i = EmbeddingMap(FiniteSet(1), FiniteSet(2), (0,))
    j = EmbeddingMap(FiniteSet(1), FiniteSet(3), (0,))
    lhs, rhs = s_regular_identity(FiniteSet(8), i, j)
    assert lhs == rhs
    # orders amalgamate and count in an order host; the sides differ, as
    # the points of 5 lie under unequally many embeddings of 2
    i = EmbeddingMap(TotalOrder(1), TotalOrder(2), (0,))
    assert s_regular_identity(TotalOrder(5), i, i) == (100, 150)


# host and largest #X + #Y' - #Y of the spans, per class
AMALGAM_HOSTS = [
    (FiniteSet(5), 4),
    (TotalOrder(5), 5),
    (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]), 4),
    (all_structures("boron", 5)[0], 4),
]


def _assert_amalgams_count_pairs(gamma, structures, span):
    """For each span (i: Y -> X, j: Y -> Y') of the structures with
    #X + #Y' - #Y <= span, the pairs of embeddings (phi: X -> gamma,
    psi: Y' -> gamma) with phi i = psi j are counted by the amalgamations W
    of the span, each |Emb(W, gamma)| times."""
    from collections import Counter
    from itertools import product

    def restrictions(e, s):
        return [tuple(m.mapping[v] for v in e.mapping)
                for m in embeddings(s, gamma)]

    for y, x, yp in product(structures, repeat=3):
        if y.size > min(x.size, yp.size) or x.size + yp.size - y.size > span:
            continue
        for i in embeddings(y, x):
            for j in embeddings(y, yp):
                psi_over = Counter(restrictions(j, yp))
                pairs = sum(psi_over[r] for r in restrictions(i, x))
                assert pairs == sum(count_embeddings(am.structure, gamma)
                                    for am in enumerate_amalgamations(i, j))


@pytest.mark.parametrize("gamma, span", AMALGAM_HOSTS,
                         ids=[g.kind for g, _ in AMALGAM_HOSTS])
def test_amalgams_count_pairs_in_a_host(gamma, span):
    _assert_amalgams_count_pairs(
        gamma, [s for n in range(span + 1)
                for s in all_structures(gamma.kind, n)], span)


def test_listed_orders_amalgamate_along_their_listings():
    from itertools import permutations
    _assert_amalgams_count_pairs(
        TotalOrder(5, (3, 0, 4, 1, 2)),
        [TotalOrder(n, p) for n in range(4) for p in permutations(range(n))],
        5)


def test_candidate_from_json_table():
    from oligocat.fraisse import (candidate_from_table, structure_text,
                                  table_skeleton)
    tbl = {}
    for n in range(7):
        for s in all_structures("boron", n):
            v = boron_mu().of_structure(s).constant()
            tbl[structure_text(s)] = (str(v.numerator) if v.denominator == 1
                                      else f"{v.numerator}/{v.denominator}")
    cand = candidate_from_table("boron-mu-table", "boron", tbl)
    assert verify_measure("boron", cand, 6).ok
    tbl[structure_text(all_structures("boron", 5)[0])] = "1/7"
    bad = candidate_from_table("bad", "boron", tbl)
    rep = verify_measure("boron", bad, 6)
    assert not rep.ok and rep.failures[0][0] == "amalgamation"
    # skeleton keys are canonical and complete
    sk = table_skeleton("graph", 3)
    assert len(sk) == 8
    assert all(k.startswith("graph:") for k in sk)


def test_structure_text_is_iso_invariant():
    from oligocat.fraisse import structure_text
    g1 = Graph(3, [frozenset((0, 1))])
    g2 = Graph(3, [frozenset((1, 2))])
    assert structure_text(g1) == structure_text(g2)
    a, b = all_structures("boron", 6)
    assert structure_text(a) != structure_text(b)


def test_amalgams_have_no_duplicates():
    # pairwise distinct canonical forms under amalgam isomorphism
    y, x, yp = TotalOrder(1), TotalOrder(2), TotalOrder(2)
    i = EmbeddingMap(y, x, (0,))
    j = EmbeddingMap(y, yp, (0,))
    ams = enumerate_amalgamations(i, j)
    keys = set()
    for am in ams:
        keys.add((am.structure.size, am.structure.key(),
                  am.into_from_yprime.mapping, am.into_from_x.mapping))
    assert len(keys) == len(ams)


# ---------------------------------------------------------------------------
# The replaced boron-tree, total-order and enumeration paths, kept as oracles


def _old_from_newick(text):
    """The two-pass Newick reader that one-pass from_newick replaced."""
    import re
    pos = 0

    def parse():
        nonlocal pos
        if pos < len(text) and text[pos] == "(":
            pos += 1
            kids = [parse()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                kids.append(parse())
            if pos >= len(text) or text[pos] != ")":
                raise ValueError("unbalanced parentheses in tree text")
            pos += 1
            return kids
        m = re.match(r"[\w.]*", text[pos:])
        pos += m.end()
        return None

    shape = parse()
    if pos != len(text.strip()):
        raise ValueError("trailing characters in tree text")
    adj, counter = {}, [0]

    def build(node, parent):
        counter[0] += 1
        nid = ("leaf" if node is None else "int", counter[0])
        adj.setdefault(nid, set())
        if parent is not None:
            adj[nid].add(parent)
            adj[parent].add(nid)
        for kid in node or ():
            build(kid, nid)

    build(shape, None)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v[0] == "int" and len(adj[v]) == 2:
                a, b = tuple(adj[v])
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                del adj[v]
                changed = True
            elif v[0] == "int" and len(adj[v]) in (0, 1) and len(adj) > 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
    leaf_nodes = sorted(v for v in adj if v[0] == "leaf")
    names = {v: i for i, v in enumerate(leaf_nodes)}
    for v in sorted(adj):
        names.setdefault(v, len(names))
    return BoronTree(len(leaf_nodes), {frozenset((names[v], names[w]))
                                       for v, ws in adj.items() for w in ws})


def _old_induced(t, elements):
    """Steiner tree of the leaves, then the induced path's own suppression
    loop and numbering."""
    from itertools import combinations
    keep = list(elements)
    k = len(keep)
    if k <= 1:
        return BoronTree(k, [])
    verts = set()
    for a, b in combinations(keep, 2):
        verts |= t._path(a, b)
    adj = {v: set() for v in verts}
    for e in t.edges:
        x, y = tuple(e)
        if x in verts and y in verts:
            adj[x].add(y)
            adj[y].add(x)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in keep:
                continue
            if len(adj[v]) <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
            elif len(adj[v]) == 2:
                a, b = tuple(adj[v])
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                del adj[v]
                changed = True
    names = {v: i for i, v in enumerate(keep)}
    for v in adj:
        names.setdefault(v, len(names))
    return BoronTree(k, {frozenset((names[v], names[w]))
                         for v, ws in adj.items() for w in ws})


def _newick_texts(t):
    """Newick texts of a boron tree rooted at each vertex and at the middle
    of each edge (a leaf root becomes a one-child internal vertex)."""
    adj = t.adj()

    def text(v, parent):
        kids = [w for w in sorted(adj[v]) if w != parent]
        if parent is not None and not kids:
            return f"x{v}"
        return "(" + ",".join(text(w, v) for w in kids) + ")"

    out = [text(v, None) for v in sorted(adj)]
    out += ["(%s,%s)" % (text(a, b), text(b, a))
            for a, b in sorted(tuple(sorted(e)) for e in t.edges)]
    return out


def _same_tree(new, old):
    assert new.size == old.size and len(new.edges) == len(old.edges)
    assert new == old and repr(new) == repr(old)


def test_from_newick_matches_two_pass_reader():
    texts = ["", "a", "()", "(a)", "((a))", "(,)", "((,),(,))",
             "((,),,(,))", "(((a,b)),c)", "((a.1,b_2),(c,d))"]
    for n in range(8):
        for t in all_structures("boron", n):
            texts += _newick_texts(t)
    for n in range(6):
        for t in labeled_boron_trees(n):
            texts += _newick_texts(t)
    for text in texts:
        _same_tree(BoronTree.from_newick(text), _old_from_newick(text))
    for text in ["((a,b)", "(a,b))", "(a;b)", "a b", "(a,b,c,d)",
                 "((a,b,c,d),e)", "(a,(b,c,d,e))"]:
        with pytest.raises(ValueError) as new:
            BoronTree.from_newick(text)
        with pytest.raises(ValueError) as old:
            _old_from_newick(text)
        assert str(new.value) == str(old.value), text


def test_induced_matches_steiner_suppression():
    from itertools import combinations
    for n in range(7):
        for t in labeled_boron_trees(n):
            for k in range(n + 1):
                for keep in combinations(range(n), k):
                    _same_tree(t.induced(keep), _old_induced(t, keep))


def test_boron_validation_messages():
    for size, edges, message in [
            (1, [(0, 1)], "tiny boron trees have no edges"),
            (3, [(0, 3), (1, 3)], "not a tree"),
            (2, [(0, 1), (1, 2)], "leaves must have degree one"),
            (4, [(0, 4), (1, 4), (2, 4), (3, 4)],
             "internal vertices must have valence three")]:
        with pytest.raises(ValueError, match=message):
            BoronTree(size, edges)


def _old_order_completions(x, yp, ip_map, size):
    """Total-order completions with the tag and dedupe that never fired."""
    from itertools import permutations
    out = []
    for perm in permutations(range(size)):
        if all(perm[a] < perm[b] for a in range(x.size)
               for b in range(x.size) if a < b):
            if all(perm[ip_map[a]] < perm[ip_map[b]]
                   for a in range(yp.size) for b in range(yp.size) if a < b):
                order = tuple(sorted(range(size), key=lambda v: perm[v]))
                out.append(("order", order))
    seen, result = set(), []
    for _, order in out:
        if order not in seen:
            seen.add(order)
            result.append(TotalOrder(size, order))
    return result


# glued carriers up to this size; at 7 the pair of runs takes about 25 s
ORDER_SPAN_SIZE = 6


def test_order_completions_match_deduplicating_path(monkeypatch):
    from itertools import combinations
    from oligocat import fraisse
    spans = []
    m = ORDER_SPAN_SIZE
    for y in range(m + 1):
        for x in range(y, m + 1):
            for yp in range(y, m + 1 - x + y):
                for im in combinations(range(x), y):
                    for jm in combinations(range(yp), y):
                        spans.append((
                            EmbeddingMap(TotalOrder(y), TotalOrder(x), im),
                            EmbeddingMap(TotalOrder(y), TotalOrder(yp), jm)))

    def listing():
        monkeypatch.setattr(fraisse, "_amalgam_cache", {})
        return [[repr(am) for am in enumerate_amalgamations(i, j)]
                for i, j in spans]

    new = listing()
    monkeypatch.setattr(TotalOrder, "completions", _old_order_completions)
    assert listing() == new


def _old_all_structures(kind, size):
    """One dedupe loop per kind, as all_structures had them."""
    from itertools import combinations, product
    seen, out = set(), []
    if kind == "graph":
        pairs = list(combinations(range(size), 2))
        for bits in product((0, 1), repeat=len(pairs)):
            g = Graph(size, [frozenset(p) for p, b in zip(pairs, bits) if b])
            if g.iso_key() not in seen:
                seen.add(g.iso_key())
                out.append(g)
        return out
    for t in labeled_boron_trees(size):
        if t.iso_key() not in seen:
            seen.add(t.iso_key())
            out.append(t)
    return out


def test_all_structures_matches_per_kind_loops():
    for kind, top in [("graph", 5), ("boron", 7)]:
        for n in range(top + 1):
            assert ([repr(s) for s in all_structures(kind, n)]
                    == [repr(s) for s in _old_all_structures(kind, n)])


def _old_induces(t, mapping, target):
    """The boron quartet check, as it stood beside the per-kind bodies."""
    from itertools import combinations
    if target.size <= 3:
        return True
    for quad in combinations(range(target.size), 4):
        w, a, b, c = quad
        if (target.relation(w, a, b, c)
                != t.relation(mapping[w], mapping[a], mapping[b], mapping[c])):
            return False
        if (target.relation(w, b, a, c)
                != t.relation(mapping[w], mapping[b], mapping[a], mapping[c])):
            return False
        if (target.relation(w, c, a, b)
                != t.relation(mapping[w], mapping[c], mapping[a], mapping[b])):
            return False
    return True


def _old_embeddings(y, x):
    """The embedding images, one branch per kind, as embeddings had them."""
    from itertools import combinations, permutations
    out = []
    if isinstance(y, FiniteSet):
        for m in permutations(range(x.size), y.size):
            out.append(m)
    elif isinstance(y, TotalOrder):
        for c in combinations(x.order, y.size):
            image = dict(zip(y.order, c))
            out.append(tuple(image[v] for v in range(y.size)))
    elif isinstance(y, Graph):
        for m in permutations(range(x.size), y.size):
            if all(y.has_edge(a, b) == x.has_edge(m[a], m[b])
                   for a, b in combinations(range(y.size), 2)):
                out.append(m)
    elif isinstance(y, BoronTree):
        for m in permutations(range(x.size), y.size):
            if _old_induces(x, m, y):
                out.append(m)
    return out


def _old_completions(x, yp, ip_map, size):
    """The structures on a glued carrier, one branch per kind, as
    _completions had them."""
    from itertools import combinations, product
    from oligocat.fraisse import _chain_merges
    if isinstance(x, FiniteSet):
        return [FiniteSet(size)]
    if isinstance(x, TotalOrder):
        orders = list(_chain_merges(x.order,
                                    tuple(ip_map[v] for v in yp.order),
                                    set(range(x.size)) & set(ip_map)))
        orders.sort(key=lambda order: sorted(range(size),
                                             key=order.__getitem__))
        return [TotalOrder(size, order) for order in orders]
    if isinstance(x, Graph):
        ip_inv = {carrier: yv for yv, carrier in enumerate(ip_map)}
        forced, free = {}, []
        for a, b in combinations(range(size), 2):
            in_x = a < x.size and b < x.size
            ya, yb = ip_inv.get(a), ip_inv.get(b)
            in_y = ya is not None and yb is not None
            if in_x and in_y:
                if x.has_edge(a, b) != yp.has_edge(ya, yb):
                    return []
                forced[(a, b)] = x.has_edge(a, b)
            elif in_x:
                forced[(a, b)] = x.has_edge(a, b)
            elif in_y:
                forced[(a, b)] = yp.has_edge(ya, yb)
            else:
                free.append((a, b))
        out = []
        for bits in product((0, 1), repeat=len(free)):
            edges = [frozenset(p) for p, v in forced.items() if v]
            edges += [frozenset(p) for p, b in zip(free, bits) if b]
            out.append(Graph(size, edges))
        return out
    return [t for t in labeled_boron_trees(size)
            if _old_induces(t, list(range(x.size)), x)
            and _old_induces(t, ip_map, yp)]


def _old_structure_text(s):
    """The text keys, one branch per kind, as structure_text had them."""
    from oligocat.fraisse import _graph_canon, _tree_canon
    if isinstance(s, FiniteSet):
        return f"set:{s.size}"
    if isinstance(s, TotalOrder):
        return f"order:{s.size}"
    if isinstance(s, Graph):
        edges = _graph_canon(s.size, s.edges)
        body = ",".join(f"{a}-{b}" for a, b in edges)
        return f"graph:{s.size}:{body}"
    return f"boron:{_tree_canon(s)}"


# per kind: the largest structures whose text keys and embeddings the
# oracles compare, and the largest glued carrier of the spans whose amalgams
# they compare.  The spans are those of the verify_measure tests above, whose
# caches they share.  At sets 5, orders 6, graphs 5 and boron 7 for both the
# oracles agree as well, but take about 19 s, four times this whole file.
ORACLE_SIZES = [("set", 5, 4), ("order", 6, 6), ("graph", 4, 4),
                ("boron", 6, 6)]


def _structures(kind, top):
    return [s for n in range(top + 1) for s in all_structures(kind, n)]


@pytest.mark.parametrize("kind, top, carrier", ORACLE_SIZES)
def test_generic_paths_match_per_kind_bodies(kind, top, carrier,
                                             monkeypatch):
    """Text keys, embeddings between every pair of structures, and the
    amalgams of every span that verify_measure checks agree, in order, with
    the per-kind bodies they replaced."""
    from oligocat import fraisse
    structures = _structures(kind, top)
    for s in structures:
        assert structure_text(s) == _old_structure_text(s)
    for y in structures:
        for x in structures:
            if y.size <= x.size:
                assert ([e.mapping for e in embeddings(y, x)]
                        == _old_embeddings(y, x))
    spans = fraisse._span_representatives(kind, _structures(kind, carrier),
                                          carrier)
    new = [[repr(am) for am in enumerate_amalgamations(i, j)]
           for _, i, j in spans]
    monkeypatch.setattr(fraisse, "_amalgam_cache", {})
    monkeypatch.setattr(fraisse.KINDS[kind], "completions", _old_completions)
    assert [[repr(am) for am in enumerate_amalgamations(i, j)]
            for _, i, j in spans] == new


def _old_span_key(y, i, j):
    """The span key as one loop over Aut(Y) x Aut(X) x Aut(Y')."""
    from oligocat.fraisse import _auts
    x, yp = i.dst, j.dst
    best = None
    for ay in _auts(y):
        for ax in _auts(x):
            mi = tuple(ax[i.mapping[ay[v]]] for v in range(y.size))
            for ap in _auts(yp):
                mj = tuple(ap[j.mapping[ay[v]]] for v in range(y.size))
                cand = (mi, mj)
                if best is None or cand < best:
                    best = cand
    return (x.iso_key(), y.iso_key(), yp.iso_key(), best)


def _span_key(y, i, j):
    """Equal exactly for spans related by automorphisms of Y, X and Y'.
    For a fixed a_Y, a_X moves only the X leg and a_Y' only the Y' leg, so
    the least pair of legs is the pair of least legs."""
    from oligocat.fraisse import _auts
    return (i.dst.iso_key(), y.iso_key(), j.dst.iso_key(),
            min((_least(i.mapping, _auts(i.dst), ay),
                 _least(j.mapping, _auts(j.dst), ay)) for ay in _auts(y)))


def _least(mapping, auts, ay):
    """The least of a.mapping.ay over the automorphisms a."""
    return min(tuple(a[mapping[v]] for v in ay) for a in auts)


def _span_shapes(structures, top):
    """The (Y, X, Y') whose glued carrier has at most top points."""
    return [(y, x, yp) for y in structures for x in structures
            for yp in structures if y.size <= min(x.size, yp.size)
            and x.size + yp.size - y.size <= top]


# the oracle sizes, with sets at 4: at 5 the keys of every pair of
# embeddings take about 5.5 s, twice the other three kinds together
SPAN_SIZES = [("set", 4), ("order", 6), ("graph", 4), ("boron", 6)]


@pytest.mark.parametrize("kind, top", SPAN_SIZES)
def test_spans_are_one_per_class(kind, top):
    """The spans up to the oracle size have pairwise distinct keys, the
    triple loop's, and cover the key of every pair of embeddings."""
    from oligocat import fraisse
    structures = _structures(kind, top)
    keys = []
    for span in fraisse._span_representatives(kind, structures, top):
        keys.append(_span_key(*span))
        assert keys[-1] == _old_span_key(*span)
    assert len(set(keys)) == len(keys)

    def legs(y, dst):
        """Per embedding of y into dst, _least for each automorphism of y."""
        return [[_least(e.mapping, fraisse._auts(dst), ay)
                 for ay in fraisse._auts(y)] for e in embeddings(y, dst)]

    every = set()  # _span_key of every pair of embeddings
    for y, x, yp in _span_shapes(structures, top):
        isos = (x.iso_key(), y.iso_key(), yp.iso_key())
        xs, yps = legs(y, x), legs(y, yp)
        every.update((*isos, min(zip(li, lj))) for li in xs for lj in yps)
    assert set(keys) == every


@pytest.mark.parametrize("kind, top", [("set", 3), ("graph", 3),
                                       ("boron", 4)])
def test_span_key_matches_triple_loop_on_every_embedding(kind, top):
    """On every span, not only those between double-coset representatives
    (whose key is their own pair of legs), the key is the triple loop's."""
    for y, x, yp in _span_shapes(_structures(kind, top), top):
        for i in embeddings(y, x):
            for j in embeddings(y, yp):
                assert _span_key(y, i, j) == _old_span_key(y, i, j)


def _old_identity_key(s):
    """What __eq__ compared and __hash__ hashed, recomputed on each call."""
    return (s.kind, s.size, s.key())


@pytest.mark.parametrize("kind, top", [sizes[:2] for sizes in ORACLE_SIZES])
def test_identity_matches_uncached_key(kind, top):
    """hash and == on every labelled structure up to the oracle size, and
    on a relabelled copy of each, are those of the uncached key."""
    from itertools import permutations
    from oligocat.fraisse import KINDS
    items = []
    for n in range(top + 1):
        shift = tuple((v + 1) % n for v in range(n))
        for s in ([TotalOrder(n, p) for p in permutations(range(n))]
                  if kind == "order" else KINDS[kind].labelled(n)):
            items += [s, s.relabel(shift)]
    firsts = {}
    for s in items:
        key = _old_identity_key(s)
        assert hash(s) == hash(key)
        assert s == firsts.setdefault(key, s)
    assert len(set(items)) == len(firsts)


@pytest.mark.parametrize("kind, top", [sizes[:2] for sizes in ORACLE_SIZES])
def test_auts_are_the_permutations_that_fix_a_structure(kind, top):
    """The automorphisms, read off the self-embeddings, are the
    permutations that relabel a structure to itself, in the same order."""
    from itertools import permutations
    from oligocat.fraisse import _auts
    for s in _structures(kind, top):
        assert _auts(s) == tuple(p for p in permutations(range(s.size))
                                 if s.relabel(p) == s)
