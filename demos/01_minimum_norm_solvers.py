#!/usr/bin/env python3
# Walk through the linear-algebra layer and the centred learners: thin SVD,
# the minimum-norm least-squares solution, and the ridge path toward PFLD.

import numpy as np

import riskcurves as rc

rng = np.random.default_rng(0)

print("=== thin SVD ===")
a = np.array([[1.0, 1.0]])
f = rc.thin_svd(a)
print(f"A = {a.tolist()}  ->  singular values {f.s}")
print(f"rank at rel_tol=1e-10: {rc.numeric_rank(f.s)}")

print("\n=== minimum-norm least squares ===")
# one equation, two unknowns: infinitely many exact solutions
w = rc.min_norm_least_squares([[1.0, 1.0]], [2.0])
print(f"x + y = 2  ->  min-norm solution {w} with norm {np.linalg.norm(w):.6f}")

# any null-space step away from it has to grow the norm
for t in (0.1, 1.0, 2.5):
    v = t * np.array([1.0, -1.0]) / np.sqrt(2.0)
    print(f"  moving {t:>4} along the null space: norm {np.linalg.norm(w + v):.6f}")

print("\n=== ridge shrinkage path ===")
# 12 random points in 4 dimensions, labelled by the sign of a random draw
x = rng.standard_normal((12, 4))
y = np.where(rng.standard_normal(12) >= 0, 1, -1)
for lam in (1e-6, 1e-3, 1.0, 1e3):
    norm = np.linalg.norm(rc.fit(rc.Ridge(lam=lam), x, y).weights)
    print(f"  lambda = {lam:<8g} ||w|| = {norm:.6f}")
print(f"  {'PFLD':<17} ||w|| = {np.linalg.norm(rc.fit(rc.Pfld(), x, y).weights):.6f}")
print("norms shrink monotonically; at lambda -> 0 ridge returns PFLD, its ridgeless limit.")
