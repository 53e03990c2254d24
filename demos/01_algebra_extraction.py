"""Tour of the built-in catalog: exact structure constants.

Every catalog entry carries a basis of polynomial vector fields.  The
library expands all pairwise Lie brackets back in that basis with exact
rational arithmetic, so the structure constants come out as Fractions,
not floats, and the Jacobi identity can be checked exactly.
"""

from liesym import center, jacobi_residual, make, names
from liesym.vectorfield import lie_bracket

print("catalog entries:")
for name in names():
    entry = make(name)
    print(f"  {entry.name:16s} {entry.kind:4s} {entry.description}")
print()

# Most one-dimensional entries share the same rank-3 algebra even though
# their carrier spaces look nothing alike.
for name in ("riccati", "quaternionic", "kummer_schwarz"):
    entry = make(name)
    alg = entry.system.algebra
    print(f"{name}: r={alg.r}, method={alg.method}, "
          f"jacobi={jacobi_residual(alg.tensor)}")
    print(f"  {alg.tensor!r}")
print()

# The planar geometries come in three flavours controlled by a sign.
for iota2 in (-1, 0, 1):
    entry = make("cayley_klein", iota2=iota2)
    print(f"cayley_klein iota2={iota2:+d}: {entry.system.algebra.tensor!r}")
print()

# An eight-dimensional algebra from a second-order scalar equation.
octet = make("painleve_ince").system.algebra
print(f"painleve_ince: r={octet.r}, jacobi={jacobi_residual(octet.tensor)}, "
      f"center dim={len(center(octet.tensor))}")
pair = lie_bracket(octet.fields[0], octet.fields[5])
print("  [X1, X6] components:", [str(c) for c in pair.components[:3]], "...")
