"""The rigid tensor category of permutation objects.

Objects are declared sets; morphisms are fully invariant matrices (level 0)
composed by measure-weighted matrix multiplication.  This module adds the
tensor structure, self-duality and categorical traces, the matrices attached
to structural maps, Frobenius algebra structure and idempotent decomposition.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import EvalPoint, Poly, evaluate
from .setexpr import SetExpr, product, one, union
from .integration import GSetMap, SchwartzFunction, pullback, pushforward
from .matrixalg import EndAlgebra, InvariantMatrix, matmul, trace


class PermObject:
    """A permutation object: a declared set in a backend."""

    __slots__ = ("ctx", "expr")

    def __init__(self, ctx, expr: SetExpr):
        self.ctx = ctx
        self.expr = expr

    def __repr__(self):
        return f"PermObject({self.expr.to_text()})"


def hom_basis(x: PermObject, y: PermObject) -> list[InvariantMatrix]:
    """One indicator matrix per orbit on codomain x domain, canonical order."""
    ctx = x.ctx
    yx = product(y.expr, x.expr)
    return [InvariantMatrix(ctx, x.expr, y.expr,
                            SchwartzFunction.from_orbit(ctx, yx, pat))
            for pat in ctx.orbits(yx, 0)]


def tensor(m: InvariantMatrix, n: InvariantMatrix) -> InvariantMatrix:
    """Kronecker product on entries; on objects the cartesian product.

    m as a column 1 -> Y1 x X1 after n as a row Y2 x X2 -> 1 is a
    composition over the one-point set: its entry on a point of
    (Y1 x X1) x (Y2 x X2) is m(y1, x1) n(y2, x2).  Reordering the factors
    to (Y1 x Y2) x (X1 x X2) is a bijection, pushed with fibre measure 1."""
    ctx = m.ctx
    x1, y1, x2, y2 = m.domain, m.codomain, n.domain, n.codomain
    column = InvariantMatrix(ctx, one(), product(y1, x1), m.entries)
    row = InvariantMatrix(ctx, product(y2, x2), one(), n.entries)
    reorder = GSetMap.proj_product([y1, x1, y2, x2], [0, 2, 1, 3])
    # the flattened expression equals (y1 x y2) x (x1 x x2) on the nose
    return InvariantMatrix(ctx, product(x1, x2), product(y1, y2),
                           pushforward(reorder, matmul(column, row).entries))


def identity_morphism(x: PermObject) -> InvariantMatrix:
    return InvariantMatrix.identity(x.ctx, x.expr)


def duality_data(x: PermObject):
    """Evaluation and coevaluation of the self-duality: diagonal indicators."""
    ctx, xe = x.ctx, x.expr
    diag = identity_morphism(x).entries
    # ev: Vec_{X x X} -> unit: entries on 1 x (X x X) = X x X
    ev = InvariantMatrix(ctx, product(xe, xe), one(), diag)
    # cv: unit -> Vec_{X x X}: entries on (X x X) x 1 = X x X
    cv = InvariantMatrix(ctx, one(), product(xe, xe), diag)
    return ev, cv


def dual_via_zigzag(m: InvariantMatrix) -> InvariantMatrix:
    """The categorical dual computed from first principles:
    (ev x 1) o (1 x m x 1) o (1 x cv), for cross-checking against transpose."""
    x = PermObject(m.ctx, m.domain)
    y = PermObject(m.ctx, m.codomain)
    ev_y, _ = duality_data(y)
    _, cv_x = duality_data(x)
    idx = identity_morphism(x)
    idy = identity_morphism(y)
    step1 = tensor(idy, cv_x)                      # Y -> Y x X x X
    step2 = tensor(tensor(idy, m), idx)            # -> Y x Y x X
    step3 = tensor(ev_y, idx)                      # -> X
    return matmul(step3, matmul(step2, step1))


def zigzag(x: PermObject) -> InvariantMatrix:
    """(id x ev) o (cv x id): equals the identity when duality holds."""
    ev, cv = duality_data(x)
    idx = identity_morphism(x)
    first = tensor(cv, idx)     # X -> (X x X) x X
    second = tensor(idx, ev)    # X x (X x X) -> X
    return matmul(second, first)


def categorical_trace(m: InvariantMatrix) -> Poly:
    """ev o (m x id) o cv, as a scalar endomorphism of the unit object."""
    if m.domain != m.codomain:
        raise ValueError("categorical trace of an endomorphism only")
    x = PermObject(m.ctx, m.domain)
    ev, cv = duality_data(x)
    comp = matmul(ev, matmul(tensor(m, identity_morphism(x)), cv))
    # an endomorphism of the unit: one orbit, one coefficient
    terms = list(comp.entries.terms.values())
    return terms[0] if terms else Poly.zero()


def categorical_dimension(x: PermObject) -> Poly:
    return categorical_trace(identity_morphism(x))


# ---------------------------------------------------------------------------
# Matrices attached to structural maps


def graph_matrices(ctx, f: GSetMap):
    """A_f (pushforward matrix) and B_f (pullback matrix, its transpose)."""
    a = InvariantMatrix.from_graph(ctx, f)
    return a, a.transpose()


def check_graph_relations(ctx, f: GSetMap, g: GSetMap | None = None):
    """Relation report for the structural-map calculus.

    Always checks A and B against direct push/pull on the Hom basis; with a
    composable g, checks functoriality A_g A_f = A_{gf} and B_f B_g = B_{gf}.
    Returns a list of (name, ok) pairs.
    """
    checks = []
    a_f, b_f = graph_matrices(ctx, f)
    one_src = SchwartzFunction.indicator(ctx, f.source, 0)
    checks.append(("A_f acts as pushforward",
                   matmul(a_f, InvariantMatrix(ctx, one(), f.source, one_src)
                          ).entries == pushforward(f, one_src)))
    one_tgt = SchwartzFunction.indicator(ctx, f.target, 0)
    checks.append(("B_f acts as pullback",
                   matmul(b_f, InvariantMatrix(ctx, one(), f.target, one_tgt)
                          ).entries == pullback(f, one_tgt)))
    if g is not None:
        a_g, b_g = graph_matrices(ctx, g)
        gf = g.compose(f)
        a_gf, b_gf = graph_matrices(ctx, gf)
        checks.append(("A_g A_f = A_{gf}", matmul(a_g, a_f) == a_gf))
        checks.append(("B_f B_g = B_{gf}", matmul(b_f, b_g) == b_gf))
    return checks


def check_base_change(ctx, square) -> bool:
    """B_g A_f = A_{f'} B_{g'} on a cartesian square (f, g, f', g')."""
    f, g, fp, gp = square
    a_f, _ = graph_matrices(ctx, f)
    _, b_g = graph_matrices(ctx, g)
    a_fp, _ = graph_matrices(ctx, fp)
    _, b_gp = graph_matrices(ctx, gp)
    return matmul(b_g, a_f) == matmul(a_fp, b_gp)


def check_mu_adapted(ctx, f: GSetMap):
    """A_f B_f = c I on a map of transitive sets; returns (ok, c)."""
    a_f, b_f = graph_matrices(ctx, f)
    lhs = matmul(a_f, b_f)
    # fiber measure over the canonical point of the (transitive) target
    tgt_orbits = ctx.orbits(f.target, 0)
    if len(tgt_orbits) != 1:
        raise ValueError("mu-adaptedness is about transitive targets")
    src_one = SchwartzFunction.indicator(ctx, f.source, 0)
    pushed = pushforward(f, src_one)
    c = pushed.coeff(tgt_orbits[0])
    return lhs == InvariantMatrix.identity(ctx, f.target).scale(c), c


def check_additivity(ctx, parts: list[SetExpr]):
    """The inclusion identities B_i A_i = I, B_j A_i = 0, and
    sum A_i B_i = I on a disjoint union."""
    incs = [GSetMap.inclusion(parts, w) for w in range(len(parts))]
    mats = [graph_matrices(ctx, i) for i in incs]
    total = None
    ok = True
    for i, (ai, bi) in enumerate(mats):
        for j, (aj, bj) in enumerate(mats):
            piece = matmul(bj, ai)
            if i == j:
                ok &= piece == InvariantMatrix.identity(ctx, parts[i])
            else:
                ok &= piece.is_zero()
        prod_ = matmul(ai, bi)
        total = prod_ if total is None else total + prod_
    ok &= total == InvariantMatrix.identity(ctx, union(*parts))
    return ok


# ---------------------------------------------------------------------------
# Frobenius structure


class FrobeniusData:
    """Unit, multiplication, counit and comultiplication on an object."""

    __slots__ = ("obj", "unit", "mult", "counit", "comult")

    def __init__(self, obj, unit, mult, counit, comult):
        self.obj = obj
        self.unit = unit
        self.mult = mult
        self.counit = counit
        self.comult = comult


def frobenius(x: PermObject):
    """The Frobenius algebra carried by every permutation object, with the
    axiom report: (a) algebra, (b) coalgebra, (c) Frobenius compatibility,
    (d) mult o comult = id."""
    ctx, xe = x.ctx, x.expr
    p = GSetMap.terminal(xe)
    dg = GSetMap.diagonal(xe)
    a_p, b_p = graph_matrices(ctx, p)
    a_d, b_d = graph_matrices(ctx, dg)
    data = FrobeniusData(x, unit=b_p, mult=b_d, counit=a_p, comult=a_d)

    idx = identity_morphism(x)
    mu, dl = data.mult, data.comult
    checks = []
    # (a) unital commutative associative algebra
    checks.append(("unit law", matmul(mu, tensor(data.unit, idx)) == idx))
    swap_m = InvariantMatrix.from_graph(ctx, GSetMap.swap(xe, xe))
    checks.append(("commutativity", matmul(mu, swap_m) == mu))
    checks.append(("associativity",
                   matmul(mu, tensor(mu, idx)) == matmul(mu, tensor(idx, mu))))
    # (b) counital cocommutative coassociative coalgebra
    checks.append(("counit law", matmul(tensor(data.counit, idx), dl) == idx))
    checks.append(("cocommutativity", matmul(swap_m, dl) == dl))
    checks.append(("coassociativity",
                   matmul(tensor(dl, idx), dl) == matmul(tensor(idx, dl), dl)))
    # (c) Frobenius compatibility
    lhs = matmul(tensor(idx, mu), tensor(dl, idx))
    mid = matmul(dl, mu)
    rhs = matmul(tensor(mu, idx), tensor(idx, dl))
    checks.append(("frobenius law", lhs == mid and mid == rhs))
    # (d) special
    checks.append(("mult o comult = id", matmul(mu, dl) == idx))
    return data, checks


# ---------------------------------------------------------------------------
# Idempotent decomposition


def idempotent_decompose(x: PermObject, at: EvalPoint):
    """Complete orthogonal primitive central idempotents of End(Vec_X) at a
    rational point, with their categorical dimensions.

    The identity is split along the spectrum of each element of a basis of
    the center in turn.  Every element of that basis then acts as a scalar
    on each piece, and so does every central element: the pieces are
    primitive.  Needs the specialized algebra to be semisimple with rational
    spectra; anything else is reported by raising ArithmeticError.
    """
    sp = EndAlgebra(x.ctx, x.expr).specialize(at)
    # the zero algebra of the empty object has no primitive idempotent
    idems = [list(sp.ident)] if sp.dim else []
    for z in sp.center_basis():
        idems = [piece for e in idems for piece in _split_idempotent(sp, e, z)]
    # orthogonality, completeness
    total = [Fraction(0)] * sp.dim
    for e in idems:
        if sp.mul(e, e) != e:
            raise ArithmeticError("idempotent refinement failed")
        total = [a + b for a, b in zip(total, e)]
    if total != sp.ident:
        raise ArithmeticError("idempotents do not sum to the identity")
    for i in range(len(idems)):
        for j in range(i + 1, len(idems)):
            if any(c != 0 for c in sp.mul(idems[i], idems[j])):
                raise ArithmeticError("idempotents are not orthogonal")

    out = []
    for e in idems:
        mat = sp.to_matrix(e)
        dim = evaluate(trace(mat), at)
        out.append((mat, dim))
    # sorted by each orbit's text in quotes, slots named by id (expr None):
    # the closing quote sorts after "#", so "[]@N=0#c3" comes before
    # "[]@N=0", the order that the recorded outputs hold
    out.sort(key=lambda md: sorted(
        (repr(x.ctx.orbit_text(None, p)), c.to_text())
        for p, c in md[0].entries.terms.items()))
    return out


def _split_idempotent(sp, e, z):
    """Split the idempotent e along the spectrum of e z e in the corner."""
    a = sp.mul(sp.mul(e, z), e)
    # powers of a stay in the corner eAe, whose unit is e
    minp = sp.min_poly(a, unit=e)
    roots = _rational_roots(minp)
    sq = minp.squarefree_part()
    if sq != minp or len(roots) != minp.degree():
        if minp.degree() > 1:
            raise ArithmeticError(
                "specialized algebra is not split semisimple over Q "
                f"(corner minimal polynomial {minp.to_text('x')})")
        return [e]
    if minp.degree() <= 1:
        return [e]
    pieces = []
    for r in roots:
        # Lagrange idempotent: prod_{s != r} (a - s e)/(r - s)
        out = list(e)
        for s in roots:
            if s == r:
                continue
            term = [ai - s * ei for ai, ei in zip(a, e)]
            out = sp.mul(out, term)
            out = [c / (r - s) for c in out]
        pieces.append(out)
    return pieces


def _rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p, by trying divisors on its integer
    numerators."""
    if p.is_zero():
        return []
    ints = p.num
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor out x; 0 is a root
    roots = set()
    if len(ints) < len(p.num):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    a0, ad = abs(ints[0]), abs(ints[-1])
    for r in _divisors(a0):
        for s in _divisors(ad):
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if p(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out) if out else [1]

