"""
Scanning the feasible region
============================

Which small invariant tuples survive the full constraint system?  The
scanner walks the (d, delta, chi, u) cells of an integer box, takes the
feasible v of each cell as one interval, and streams the survivors in
lexicographic order.
"""

import io
import sys

from p6fold import HypothesisConfig, ScanBox, iter_feasible, scan

cfg = HypothesisConfig()

# All low-degree candidates with chi = 1 (rational-surface sections).
box = ScanBox.of(d=(1, 6), delta=(-2, 4), chi=1, u=(1, 9), v=(-10, 40))
print(f"box volume: {box.volume()} lattice points")

survivors = list(iter_feasible(box, cfg))
print(f"feasible tuples: {len(survivors)}\n")
print("  (d, delta, chi, u, v)   K_S^2  g  schur")
for t, p in survivors:
    print(f"  {tuple(t)!s:22s}  {p.KS2:4d}  {p.g!s:2s} {tuple(p.schur)}")

# The same scan through the streaming interface, CSV into any sink.
sink = io.StringIO()
result = scan(box, cfg, sink)
assert sink.getvalue().count("\n") == result.feasible + 1  # header + rows
print(f"\nstreamed {result.feasible}/{result.scanned} rows")

# Raising the degree floor (nondegenerate varieties have d >= 4) thins the
# region out.
strict = HypothesisConfig(min_degree=4)
result = scan(box, strict, sys.stdout)
print(f"with d >= 4: {result.feasible} tuples", file=sys.stderr)
