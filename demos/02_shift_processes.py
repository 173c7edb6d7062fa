"""Label-marginal shift processes and covariate corruptions.

The test-time label marginal interpolates between a uniform vector q and a
one-hot vector q' as q_t = alpha_t q + (1 - alpha_t) q'. This script prints
the four alpha schedules and their shift severities V_T, then shows what
the corruption transforms do to inputs.
"""

import numpy as np

from olsofu import (
    CorruptionSpec,
    corrupt,
    default_pattern,
    make_rng,
    marginal_path,
    path_length,
)

K, T = 4, 1000

# Row t - 1 of a path is q_t; a bernoulli path draws its switches from the rng.
paths = {}
print(f"=== Shift processes (K={K}, T={T}) ===")
for kind in ("sinusoidal", "bernoulli", "constant", "monotone"):
    qs = paths[kind] = marginal_path(default_pattern(kind, K, T), make_rng(7))
    head = ", ".join(str(np.round(q_t, 3)) for q_t in qs[:3])
    print(f"  {kind:11s} V_T = {path_length(qs):8.3f}   q_1..q_3: {head}")

print("\nThe sinusoidal period is round(sqrt(T)):")
period = round(np.sqrt(T))
print(f"  L = {period}; q_t returns to q' whenever t mod L == 0, e.g. "
      f"q_{period} = {np.round(paths['sinusoidal'][period - 1], 3)}")

print("\nBernoulli switches with probability 1 - 1/sqrt(T) by default:")
flips = (np.diff(paths["bernoulli"], axis=0) != 0).any(axis=1).mean()
print(f"  empirical flip rate over T={T}: {flips:.3f} "
      f"(formula value {1 - 1/np.sqrt(T):.5f})")

print("\n=== Corruptions (generalized label shift stand-ins) ===")
rng = make_rng(0)
x = np.array([1.0, 0.0, 0.5, -0.5])
print(f"  input                   {x}")
print(f"  rotate2d 90 deg      -> {np.round(corrupt(x, CorruptionSpec('rotate2d', angle=90), rng), 6)}")
print(f"  rotate2d 30 deg      -> {np.round(corrupt(x, CorruptionSpec('rotate2d', angle=30), rng), 4)}")
print(f"  affine severity 0.5  -> {corrupt(x, CorruptionSpec('affine', severity=0.5), rng)}")
noise = corrupt(np.zeros((100_000, 2)), CorruptionSpec("gaussian_noise", severity=0.07), rng)
print(f"  gaussian severity .07: per-coordinate variance {noise.var(axis=0)} "
      f"(expected 0.0049)")

rot = corrupt(x, CorruptionSpec("rotate2d", angle=37.0), rng)
back = corrupt(rot, CorruptionSpec("rotate2d", angle=-37.0), rng)
print(f"  rotation is invertible: max |x - back| = {np.abs(x - back).max():.2e}")
