#!/usr/bin/env python3
"""Tour of the three-argument generalized Bessel function J_n(u, v, D).

J_n(u, v, D) is the Fourier coefficient of exp{i[u sin(t+D) + v sin 2t]}
and carries the whole multiphoton structure of the cross sections: the
envelope support |n| <~ |u| + 2|v| is precisely the classically allowed
energy exchange.  This script demonstrates every identity the library
guarantees, printing the residuals.

Run from the repo root:  python demos/gbessel_tour.py
"""

import cmath
import math

import numpy as np

from sbxs.gbessel import bessel_j, gbessel, gbessel_quad, gbessel_row

n, u, v, delta = 7, 12.5, 3.2, 0.9
print(f"working point: n={n}, u={u}, v={v}, delta={delta}\n")

s = gbessel(n, u, v, delta)
q = gbessel_quad(n, u, v, delta)
print(f"series     {s:.15f}")
print(f"quadrature {q:.15f}")
print(f"|series - quadrature| = {abs(s - q):.2e}\n")

print("reduction to ordinary Bessel (v = 0, any D):")
print(f"  |J_n(u,0,D) - J_n(u)| = {abs(gbessel(n, u, 0.0, delta) - bessel_j(n, u)):.2e}")

print("zero first argument (odd n vanishes, even n picks a phase):")
print(f"  J_5(0,v,D)  = {gbessel(5, 0.0, v, delta)}")
ref = cmath.exp(-1j * delta * 6) * bessel_j(3, v)
print(f"  |J_6(0,v,D) - e^(-6iD) J_3(v)| = {abs(gbessel(6, 0.0, v, delta) - ref):.2e}\n")

print("index/argument symmetries:")
sign = (-1.0) ** n
print(f"  u -> -u : {abs(gbessel(n, -u, v, delta) - sign * s):.2e}")
print(f"  v -> -v : {abs(gbessel(n, u, -v, delta) - sign * gbessel(-n, u, v, -delta)):.2e}\n")

print("recurrences (the derivative ones checked by finite differences):")
h = 1e-5
fd_u = (gbessel(n, u + h, v, delta) - gbessel(n, u - h, v, delta)) / (2 * h)
print(f"  d/du : {abs(gbessel(n-1, u, v, delta) - gbessel(n+1, u, v, delta) - 2*fd_u):.2e}")
fd_v = (gbessel(n, u, v + h, delta) - gbessel(n, u, v - h, delta)) / (2 * h)
lhs = (cmath.exp(-2j * delta) * gbessel(n - 2, u, v, delta)
       - cmath.exp(2j * delta) * gbessel(n + 2, u, v, delta))
print(f"  d/dv : {abs(lhs - 2 * fd_v):.2e}")
row = gbessel_row(n - 2, n + 2, u, v, delta)
three = (2 * n * row[n] - u * (row[n - 1] + row[n + 1])
         - 2 * v * (cmath.exp(-2j * delta) * row[n - 2]
                    + cmath.exp(2j * delta) * row[n + 2]))
print(f"  index: {abs(three):.2e}\n")

span = int(math.ceil(u + 2 * v)) + 40
wide = gbessel_row(-span, span, u, v, delta)
print(f"row over n in [{-span}, {span}]:")
print(f"  Parseval  sum |J_n|^2 - 1 = {np.sum(np.abs(wide.values)**2) - 1.0:+.2e}")
phi = 0.4
ns = np.arange(-span, span + 1)
gen = np.sum(np.exp(1j * ns * (phi + delta)) * wide.values)
target = cmath.exp(1j * (u * math.sin(phi + delta) + v * math.sin(2 * phi)))
print(f"  generating function at phi={phi}: {abs(gen - target):.2e}")

print("\nsupport structure (values collapse past |n| ~ u + 2v):")
for m in (0, int(u), int(u + 2 * v), int(u + 2 * v) + 8, int(u + 2 * v) + 16):
    print(f"  |J_{m:+3d}| = {abs(wide[m]):.3e}")

print("\naddition theorem, J . J summed over the shared index:")
up, vp = 2.5, 0.7
span2 = int(math.ceil(u + up + 2 * (v + vp))) + 40
row_a = gbessel_row(n - span2, n + span2, u, v, delta)
row_b = gbessel_row(-span2, span2, up, vp, delta)
acc = sum(row_a[n - k] * row_b[k] for k in range(-span2, span2 + 1))
print(f"  residual vs J_n(u+u', v+v', D): "
      f"{abs(acc - gbessel(n, u + up, v + vp, delta)):.2e}")
