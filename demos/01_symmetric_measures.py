#!/usr/bin/env python3
"""Measures for the infinite symmetric group.

Every reasonable set built from Omega = {1, 2, ...} gets a size in Q[t]:
the polynomial interpolating its fixed-point counts.  Orbits of the
stabilizer of {1..N} are the atoms everything decomposes into.
"""

from oligocat import (SymContext, power, inj, sub, product,
                      SchwartzFunction, integrate, change_level)

ctx = SymContext()

print("== sizes of the basic sets (polynomials in t) ==")
for name, expr in [("Omega", power(1)), ("Omega^3", power(3)),
                   ("ordered distinct pairs", inj(2)),
                   ("2-element subsets", sub(2)),
                   ("3-element subsets", sub(3))]:
    print(f"  mu({name}) = {ctx.set_measure(expr).to_text()}")

print()
print("== the interpolation property ==")
mu = ctx.set_measure(sub(2))
for n in range(2, 7):
    print(f"  at t = {n}: polynomial gives {mu(n)},"
          f" fixed points of the n-th stabilizer: {ctx.fixed_points(sub(2), n)}")

print()
print("== orbits of Omega^2 under the stabilizer of {1} ==")
for pat in ctx.orbits(power(2), 1):
    text = ctx.orbit_text(power(2), pat)
    print(f"  {text:28s} measure {ctx.measure(power(2), pat).to_text()}")

print()
print("== additivity under refining the level ==")
one = SchwartzFunction.indicator(ctx, power(1), 0)
for lvl in (0, 1, 2):
    f = change_level(one, lvl)
    print(f"  level {lvl}: {len(f.terms)} orbits, total {integrate(f).to_text()}")
