"""Smoothed nested deltas, Fisher information, and the density contraction.

Run as: python3 demos/02_fisher_information.py
"""

import numpy as np

from grovekit import (
    InfoTensorBinding,
    MetricBinding,
    build_nested_distribution,
    cramer_rao_report,
    fisher_information,
    information_density,
    location_family,
    parse,
)
from grovekit.infotheory import grid

print("== Gaussian location family ==")
for scale in (0.5, 1.0, 2.0):
    # offsets reach 6 kernel widths past m in [-0.5, 0.5], in 256 cells
    info = fisher_information(location_family(scale), "a")
    print(f"scale {scale}: information {info:.4f} (analytic {1/scale**2:.4f})")

print("\n== Cramer-Rao check on a pure location family ==")
from grovekit import GridDistribution, smoothed_delta

g = grid(("a", -3.5, 3.5, 512))
dist = GridDistribution.from_function(
    g, lambda a: smoothed_delta(a, 0.0, 0.5), eps=0.5)
report = cramer_rao_report(dist)
for line in report.lines():
    print(" ", line)

print("\n== depth-1 nesting with a nonlinear signal ==")
g1 = grid(("m", -1.0, 1.0, 24), ("b", -1.5, 1.5, 48), ("a", -1.0, 5.0, 64))
dist1 = build_nested_distribution(
    parse("sig tau(m1)"),
    MetricBinding(sigma=lambda m: m ** 2, tau=np.tanh), g1, eps=0.15)
print(f"mass {dist1.mass:.6f}, offset information "
      f"{fisher_information(dist1, 'a'):.2f}")

print("\n== information density of a 4x4x4 tensor field ==")
rng = np.random.default_rng(2)
weights = rng.uniform(0.1, 0.5, size=(4, 4, 4))
components = [[[lambda x, w=weights[i, j, k]: w * x
                for k in range(4)] for j in range(4)] for i in range(4)]
binding = InfoTensorBinding(components, np.full((4, 4), 0.3))
for point in ([0.1, 0.2, 0.3, 0.4], [0.5, 0.5, 0.5, 0.5]):
    sigma = information_density(binding, point, eps=0.6)
    print(f"sigma at {point}: {sigma:.4f}")
