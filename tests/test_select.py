"""Neighbor-based feature weighting against a brute-force oracle.

The oracle below re-derives the weighting from the definition with plain
loops and sorted() calls: per-feature range-normalized differences,
squared-distance neighbor ranking with stable index tie-breaks, hits
first, then misses per class weighted by prior odds. It shares no code
with the implementation.
"""

import ast
import importlib
import warnings

import numpy as np
import pytest

from chargecast.relieff import (
    CONTINUOUS,
    DISCRETE,
    FeatureTable,
    relieff,
    select_features,
    write_weights_csv,
)

relieff_module = importlib.import_module("chargecast.relieff")

CLAMP_TEXT = "clamped neighbor counts: "


def warned_clamps(caught) -> dict:
    """The {class: {"hits": n, "misses": n}} of relieff's clamp warning among caught, {} without one."""
    texts = [str(w.message) for w in caught if CLAMP_TEXT in str(w.message)]
    assert len(texts) <= 1
    return ast.literal_eval(texts[0].split(CLAMP_TEXT, 1)[1]) if texts else {}


def oracle_relieff(values, kinds, labels, k, seed):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    m_rows, n_feat = values.shape

    def feat_diff(f, i, j):
        if kinds[f] == DISCRETE:
            return 0.0 if values[i, f] == values[j, f] else 1.0
        col = values[:, f]
        span = float(col.max() - col.min())
        if span == 0.0:
            return 0.0
        return abs(values[i, f] - values[j, f]) / span

    def distance(i, j):
        total = 0.0
        for f in range(n_feat):
            d = feat_diff(f, i, j)
            total += d * d
        return total

    classes = sorted(set(labels.tolist()))
    count = {c: int((labels == c).sum()) for c in classes}
    prior = {c: count[c] / m_rows for c in classes}

    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.default_rng(seed)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    visits = rng.permutation(m_rows).tolist()

    w = np.zeros(n_feat)
    for r in visits:
        c_r = labels[r]
        dists = {j: distance(r, j) for j in range(m_rows)}

        same = [j for j in range(m_rows) if labels[j] == c_r]
        same_sorted = sorted(same, key=lambda j: dists[j])  # stable: index order in
        same_sorted = [j for j in same_sorted if j != r]
        kk = min(k, count[c_r] - 1)
        for h in same_sorted[:kk]:
            for f in range(n_feat):
                w[f] -= feat_diff(f, r, h) / (m_rows * kk)

        for c in classes:
            if c == c_r:
                continue
            other = [j for j in range(m_rows) if labels[j] == c]
            other_sorted = sorted(other, key=lambda j: dists[j])
            kk = min(k, count[c])
            factor = prior[c] / (1.0 - prior[c_r])
            for miss in other_sorted[:kk]:
                for f in range(n_feat):
                    w[f] += factor * feat_diff(f, r, miss) / (m_rows * kk)
    return w


def random_table(rng, m_rows, n_feat, n_classes=2):
    kinds = tuple(
        DISCRETE if rng.random() < 0.3 else CONTINUOUS for _ in range(n_feat)
    )
    cols = []
    for kind in kinds:
        if kind == DISCRETE:
            cols.append(rng.integers(0, 3, size=m_rows).astype(float))
        else:
            cols.append(rng.normal(size=m_rows))
    labels = rng.integers(0, n_classes, size=m_rows)
    while len(set(labels.tolist())) < n_classes:
        labels = rng.integers(0, n_classes, size=m_rows)
    values = np.column_stack(cols)
    return FeatureTable(
        values=values,
        kinds=kinds,
        labels=labels,
        feature_names=tuple(f"f{i}" for i in range(n_feat)),
    )


def test_matches_oracle_exactly_on_random_tables():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        m_rows = int(rng.integers(12, 40))
        n_feat = int(rng.integers(2, 6))
        table = random_table(rng, m_rows, n_feat)
        k = int(rng.integers(1, 6))
        seed = int(rng.integers(0, 10000))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = relieff(table, k=k, seed=seed)
        want = oracle_relieff(table.values, table.kinds, table.labels, k, seed)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_matches_oracle_with_three_classes():
    rng = np.random.default_rng(55)
    table = random_table(rng, 30, 4, n_classes=3)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = relieff(table, k=3, seed=42)
    want = oracle_relieff(table.values, table.kinds, table.labels, 3, 42)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def informative_table(seed, m_rows=60):
    """f0 tracks the label, the rest is noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=m_rows)
    f0 = labels + 0.08 * rng.normal(size=m_rows)
    noise = rng.normal(size=(m_rows, 3))
    return FeatureTable(
        values=np.column_stack([f0, noise]),
        kinds=(CONTINUOUS,) * 4,
        labels=labels,
        feature_names=("signal", "n1", "n2", "n3"),
    )


def test_informative_feature_ranks_first():
    wins = 0
    for seed in range(20):
        table = informative_table(seed)
        weights = relieff(table, k=5, seed=seed)
        if select_features(weights)[0] == 0:
            wins += 1
    assert wins >= 19


def test_weights_are_bounded():
    rng = np.random.default_rng(8)
    table = random_table(rng, 50, 5)
    w = relieff(table, k=10, seed=0)
    assert w.dtype == np.float64 and w.shape == (table.F,)
    assert np.all(w >= -1.0) and np.all(w <= 1.0)


def test_power_of_two_scaling_is_bitwise_invariant():
    table = informative_table(3)
    scaled = FeatureTable(
        values=table.values * np.array([1024.0, 1.0, 1.0, 1.0]),
        kinds=table.kinds,
        labels=table.labels,
        feature_names=table.feature_names,
    )
    a = relieff(table, k=5, seed=9)
    b = relieff(scaled, k=5, seed=9)
    np.testing.assert_array_equal(a, b)


def test_arbitrary_scaling_is_invariant_to_rounding():
    table = informative_table(4)
    scaled = FeatureTable(
        values=table.values * np.array([3.7, 1.0, 1.0, 1.0]),
        kinds=table.kinds,
        labels=table.labels,
        feature_names=table.feature_names,
    )
    a = relieff(table, k=5, seed=9)
    b = relieff(scaled, k=5, seed=9)
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_deterministic_per_seed():
    table = informative_table(6)
    a = relieff(table, k=4, seed=123)
    b = relieff(table, k=4, seed=123)
    np.testing.assert_array_equal(a, b)


def test_small_class_clamps_and_warns():
    values = np.column_stack([np.arange(6, dtype=float)])
    labels = np.array([0, 0, 0, 0, 1, 1])
    table = FeatureTable(values, (CONTINUOUS,), labels, ("x",))
    with pytest.warns(UserWarning, match="clamped") as caught:
        relieff(table, k=5, seed=0)
    # neither class can supply 5 hits: class 0 has 3 other rows, class 1 one
    assert [str(w.message) for w in caught] == [
        "classes too small for k=5; clamped neighbor counts: "
        "{0: {'hits': 3, 'misses': 4}, 1: {'hits': 1, 'misses': 2}}"
    ]


def test_needs_two_classes():
    table = FeatureTable(
        np.ones((4, 1)), (CONTINUOUS,), np.zeros(4, dtype=int), ("x",)
    )
    with pytest.raises(ValueError, match="two classes"):
        relieff(table, k=1, seed=0)


def test_select_features_orders_by_weight_then_index():
    w = relieff(informative_table(0), k=5, seed=0)
    top = select_features(w)
    vals = w[top]
    assert all(vals[i] >= vals[i + 1] for i in range(3))


def test_weights_csv_is_ranked(tmp_path):
    table = informative_table(1)
    w = relieff(table, k=5, seed=1)
    path = tmp_path / "w.csv"
    write_weights_csv(path, table.feature_names, w)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "feature,weight"
    weights = [float(line.split(",")[1]) for line in lines[1:]]
    assert weights == sorted(weights, reverse=True)


def loop_form_relieff(table, k, seed):
    """relieff's former loop: per visit, a full diff matrix, a stable
    argsort of every class pool, and one -= / += per neighbor row.

    The blocked implementation must add the same numbers in the same order,
    so its weights are bit-identical to these.
    """
    vals, labels = table.values, table.labels
    classes, counts = np.unique(labels, return_counts=True)
    prior = counts / table.M
    ranges = vals.max(axis=0) - vals.min(axis=0)
    discrete = np.array([kind == DISCRETE for kind in table.kinds])
    scaled = ~discrete & (ranges > 0.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    w = np.zeros(table.F)
    for r in rng.permutation(table.M):
        diffs = np.zeros_like(vals)
        diffs[:, scaled] = np.abs(vals[r, scaled] - vals[:, scaled]) / ranges[scaled]
        diffs[:, discrete] = (vals[r, discrete] != vals[:, discrete]).astype(float)
        dist = np.zeros(table.M)
        for f in range(table.F):
            dist += diffs[:, f] * diffs[:, f]
        own = int(np.searchsorted(classes, labels[r]))

        def nearest(ci):
            pool = np.nonzero(labels == classes[ci])[0]
            return pool[np.argsort(dist[pool], kind="stable")]

        hits = nearest(own)
        hits = hits[hits != r]
        kk = min(k, int(counts[own]) - 1)
        for h in hits[:kk]:
            w -= diffs[h] / (table.M * kk)
        for ci in range(classes.size):
            if ci == own:
                continue
            kk = min(k, int(counts[ci]))
            scale = prior[ci] / (1.0 - prior[own])
            for miss in nearest(ci)[:kk]:
                w += scale * diffs[miss] / (table.M * kk)
    return w


def test_batched_updates_are_bitwise_the_loop_form():
    rng = np.random.default_rng(77)
    m_rows = 25
    labels = np.array([0] * 12 + [1] * 10 + [2] * 3)[rng.permutation(m_rows)]
    values = np.column_stack([
        rng.normal(size=m_rows),
        rng.integers(0, 3, size=m_rows).astype(float),
        np.full(m_rows, 4.0),
        rng.uniform(-5.0, 5.0, size=m_rows),
    ])
    kinds = (CONTINUOUS, DISCRETE, CONTINUOUS, CONTINUOUS)
    table = FeatureTable(values, kinds, labels, ("a", "b", "c", "d"))
    with pytest.warns(UserWarning, match="clamped") as caught:
        got = relieff(table, k=5, seed=31)
    assert warned_clamps(caught) == {2: {"hits": 2, "misses": 3}}  # class 2 cannot supply 5 hits or misses
    want = loop_form_relieff(table, 5, 31)
    assert np.array_equal(got, want)


def loop_form_tables():
    """(name, table, k): distance ties, discrete-only columns, clamped classes."""
    rng = np.random.default_rng(78)
    # six distinct rows, each repeated: a visit ties at distance 0 with its
    # duplicates, which may sort before it in its own class pool
    base = np.column_stack([rng.normal(size=6), rng.integers(0, 2, size=6).astype(float)])
    pick = rng.integers(0, 6, size=30)
    duplicated = FeatureTable(base[pick], (CONTINUOUS, DISCRETE), (pick + rng.integers(0, 2, size=30)) % 2, ("a", "b"))

    # 0/1 columns: most distances tie, and tied rows differ in their diffs
    discrete = FeatureTable(
        rng.integers(0, 2, size=(40, 3)).astype(float),
        (DISCRETE,) * 3,
        np.arange(40) % 3,
        ("a", "b", "c"),
    )

    # with k = 3, a class of one row has no hits at all and one of three
    # rows only two
    clamped = FeatureTable(
        rng.normal(size=(20, 2)), (CONTINUOUS,) * 2, np.array([0] * 16 + [1] * 3 + [2]), ("a", "b")
    )
    return [
        ("duplicated_rows", duplicated, 4),
        ("discrete_only", discrete, 6),
        ("clamped_classes", clamped, 3),
    ]


LOOP_FORM_TABLES = loop_form_tables()


@pytest.mark.parametrize("block_bytes", [1, 1 << 21], ids=["one_visit_blocks", "default_blocks"])
@pytest.mark.parametrize(
    "name,table,k", LOOP_FORM_TABLES, ids=[case[0] for case in LOOP_FORM_TABLES]
)
def test_blocked_updates_are_bitwise_the_loop_form(monkeypatch, name, table, k, block_bytes):
    monkeypatch.setattr(relieff_module, "_BLOCK_BYTES", block_bytes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = relieff(table, k=k, seed=31)
    classes, counts = np.unique(table.labels, return_counts=True)
    small = {int(c): {"hits": min(k, int(n) - 1), "misses": min(k, int(n))} for c, n in zip(classes, counts) if n < k + 1}
    assert warned_clamps(caught) == small
    assert bool(caught) == bool(small)
    want = loop_form_relieff(table, k, 31)
    assert np.array_equal(got, want)
