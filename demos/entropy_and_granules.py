"""Complexity curves and window granules on contrasting signals."""

import numpy as np

from chargecast.entropy import msse_curve
from chargecast.granulate import fig_granulate, membership


def describe(name, series):
    curve = msse_curve(series, m=2, r_frac=0.15, tau_max=5)
    rendered = "  ".join(f"{v:.3f}" for v in curve)
    print(f"{name:<12} entropy at scales 1..5:  {rendered}")


rng = np.random.default_rng(21)
n = 2048

describe("white noise", rng.normal(size=n))
describe("sine", np.sin(np.arange(n) / 7.0))
describe("sine+noise", np.sin(np.arange(n) / 7.0) + 0.3 * rng.normal(size=n))

# Granulate a week of hourly-looking data into daily triangles: fig_granulate
# returns a tuple with one granule per 24-step window. Each granule keeps the
# window minimum, median, and maximum; membership ramps linearly between them.
hours = np.arange(24 * 7)
demand = 2.0 + np.sin(2 * np.pi * hours / 24.0) + 0.2 * rng.normal(size=hours.size)
granules = fig_granulate(demand, window=24)

print()
print("daily granules (a=min, m=median, b=max):")
for day, g in enumerate(granules):
    print(f"  day {day}:  a={g.a:.3f}  m={g.m:.3f}  b={g.b:.3f}")

g = granules[0]
print()
print("membership in day 0 granule:")
for x in (g.a - 0.1, g.a, (g.a + g.m) / 2, g.m, (g.m + g.b) / 2, g.b + 0.1):
    print(f"  mu({x:7.3f}) = {membership(float(x), g):.3f}")
