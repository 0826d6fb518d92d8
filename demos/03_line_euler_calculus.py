#!/usr/bin/env python3
"""The order-preserving self-maps of the line: integration is Euler calculus.

The standard permutation object has dimension -1.  Its endomorphism algebra
is three-dimensional with idempotents cutting it into three simple pieces of
dimensions -1, -1 and 1.
"""

from oligocat import (OrderContext, power, inj, sub, product, PermObject,
                      InvariantMatrix, SchwartzFunction, matmul, trace,
                      idempotent_decompose, hom_basis, categorical_dimension,
                      EvalPoint, single_color_symbols)

ctx = OrderContext(-1, -1)

print("== compactly supported Euler characteristics ==")
for name, expr in [("R", power(1)), ("R^2", power(2)), ("R^3", power(3)),
                   ("ordered distinct pairs", inj(2)),
                   ("2-element subsets", sub(2))]:
    print(f"  mu({name}) = {ctx.set_measure(expr).to_text()}")

print()
print("== the four measures on the one-point compactifications ==")
for eps in (-1, 0):
    for delt in (-1, 0):
        c = OrderContext(eps, delt)
        print(f"  (eps, delta) = ({eps:2d},{delt:2d}):"
              f" mu(R) = {c.set_measure(power(1)).to_text()}")

print()
print("== End(C(R)): A = [x < y], B = [x > y] ==")
rr = product(power(1), power(1))
pats = {p[2]: p for p in ctx.orbits(rr, 0)}  # orbit = (comp, level, classes)
A = InvariantMatrix(ctx, power(1), power(1),
                    SchwartzFunction.from_orbit(ctx, rr, pats[((0,), (1,))]))
B = InvariantMatrix(ctx, power(1), power(1),
                    SchwartzFunction.from_orbit(ctx, rr, pats[((1,), (0,))]))
print("  A^2 = -A:", matmul(A, A) == A.scale(-1))
print("  AB  = -1 - A - B:",
      matmul(A, B) == InvariantMatrix.identity(ctx, power(1)).scale(-1) - A - B)
print("  dim Vec_R =", categorical_dimension(PermObject(ctx, power(1))).to_text())

print()
print("== simple decomposition of the standard object ==")
for mat, dim in idempotent_decompose(PermObject(ctx, power(1)),
                                     EvalPoint.rational(7)):
    print(f"  idempotent of categorical dimension {dim}")

print()
print("== Hom bases grow like ordered set partitions ==")
for n in (1, 2):
    obj = PermObject(ctx, power(n))
    print(f"  dim End(Vec_R^(x{n})) = {len(hom_basis(obj, obj))}")

print()
print("== the four sign tables over one color ==")
for s in single_color_symbols(4):
    row = {k[:2]: v for k, v in s.table.items()}
    print(" ", row)
