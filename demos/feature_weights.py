"""Neighbor-based feature weighting on a table with one real signal.

Three of the four features below are pure noise; the first tracks the
class label. The weighting should place it first by a wide margin, and
rescaling a column must not change anything because distances are
computed on range-normalized values.
"""

import numpy as np

from chargecast.relieff import CONTINUOUS, FeatureTable, relieff

rng = np.random.default_rng(3)
m_rows = 120

labels = rng.integers(0, 2, size=m_rows)
signal = labels + 0.1 * rng.normal(size=m_rows)
values = np.column_stack([signal, rng.normal(size=(m_rows, 3))])

table = FeatureTable(
    values=values,
    kinds=(CONTINUOUS,) * 4,
    labels=labels,
    feature_names=("signal", "noise_a", "noise_b", "noise_c"),
)

k = 10
weights = relieff(table, k=k, seed=3)
order = np.argsort(weights)[::-1]
print(f"weights from {table.M} visited rows, k={k}:")
for idx in order:
    print(f"  {table.feature_names[idx]:<8} {weights[idx]:+.4f}")

scaled = FeatureTable(
    values=values * np.array([1000.0, 1.0, 0.001, 1.0]),
    kinds=table.kinds,
    labels=labels,
    feature_names=table.feature_names,
)
rerun = relieff(scaled, k=k, seed=3)
print()
print("weights unchanged after rescaling two columns:",
      bool(np.array_equal(weights, rerun)))
