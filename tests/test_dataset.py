import numpy as np
import pytest

from imvc import (
    MaskSpec,
    MultiViewDataset,
    ViewMatrix,
    apply_paired_sample_mask,
    apply_random_missing_mask,
    load_dataset,
    normalize_views,
    save_dataset,
)
from imvc.dataset import _draw_random_missing, _repair_coverage, _round_half_up

from reference import build_indicator


def complete_dataset(n, l, seed=0, m=3):
    rng = np.random.default_rng(seed)
    views = tuple(ViewMatrix(view_id=v, data=rng.normal(size=(m, n))) for v in range(l))
    return MultiViewDataset(
        views=views, n=n, availability=tuple(np.arange(n) for _ in range(l))
    )


# ---------------------------------------------------------------- indicators
# The dense indicator matrices are the tests' reference for the availability
# ids that the solver uses directly; these tests pin that reference down.


def test_indicator_partial_view():
    assert build_indicator([0, 2], n=3).tolist() == [[1, 0], [0, 0], [0, 1]]


def test_indicator_complete_view_is_identity():
    assert np.array_equal(build_indicator([0, 1], n=2), np.eye(2, dtype=np.int64))


def test_indicator_single_instance():
    assert build_indicator([3], n=4).tolist() == [[0], [0], [0], [1]]


def test_indicator_orthogonality_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        size = int(rng.integers(1, n + 1))
        ids = np.sort(rng.choice(n, size=size, replace=False))
        g = build_indicator(ids, n)
        assert np.array_equal(g.T @ g, np.eye(size, dtype=np.int64))
        assert np.array_equal(np.argmax(g, axis=0), ids)
        assert g.sum(axis=1).max() <= 1
        # gathering through the ids is the product with G, exactly
        q = rng.normal(size=(2, n))
        assert np.array_equal(q[:, ids], q @ g)


def test_indicator_rejects_bad_ids():
    with pytest.raises(ValueError, match="invalid availability"):
        build_indicator([0, 3], n=3)
    with pytest.raises(ValueError, match="duplicate"):
        build_indicator([1, 1], n=3)
    with pytest.raises(ValueError, match="invalid availability"):
        build_indicator([-1], n=3)


# ------------------------------------------------------------ random missing


def test_random_missing_rate_zero_is_identity():
    full = complete_dataset(8, 2)
    out = apply_random_missing_mask(full, MaskSpec("random-missing", 0.0, seed=3))
    for ids, view, oview in zip(out.availability, full.views, out.views):
        assert np.array_equal(ids, np.arange(8))
        assert np.array_equal(view.data, oview.data)


def test_random_missing_exact_counts_with_lucky_seed():
    # seed chosen so the coverage repair never fires: counts stay exact
    full = complete_dataset(10, 2)
    out = apply_random_missing_mask(full, MaskSpec("random-missing", 0.5, seed=437))
    assert [ids.size for ids in out.availability] == [5, 5]
    covered = np.zeros(10, dtype=bool)
    for ids in out.availability:
        covered[ids] = True
    assert covered.all()


def test_random_missing_paper_rate_keeps_round_complement():
    full = complete_dataset(20, 5)
    out = apply_random_missing_mask(full, MaskSpec("random-missing", 0.3, seed=0))
    assert [ids.size for ids in out.availability] == [_round_half_up(0.7 * 20)] * 5


def test_random_missing_coverage_and_repair_property():
    # exhaustive check of generated masks against the at-least-one-view rule
    for seed in range(25):
        full = complete_dataset(17, 3, seed=seed)
        rng = np.random.default_rng(seed)
        pre = _draw_random_missing(17, 3, 0.5, rng)
        post = _repair_coverage(17, [ids.copy() for ids in pre], rng)
        covered = np.zeros(17, dtype=bool)
        for before, after in zip(pre, post):
            assert set(before).issubset(set(after))  # repair only adds
            covered[after] = True
        assert covered.all()
        assert all(ids.size == _round_half_up(0.5 * 17) for ids in pre)


def test_random_missing_deterministic():
    full = complete_dataset(30, 3)
    spec = MaskSpec("random-missing", 0.4, seed=11)
    a = apply_random_missing_mask(full, spec)
    b = apply_random_missing_mask(full, spec)
    for x, y in zip(a.availability, b.availability):
        assert np.array_equal(x, y)


def test_random_missing_columns_follow_availability():
    full = complete_dataset(12, 2, seed=5)
    out = apply_random_missing_mask(full, MaskSpec("random-missing", 0.3, seed=5))
    for view, out_view, ids in zip(full.views, out.views, out.availability):
        assert np.array_equal(out_view.data, view.data[:, ids])


def test_random_missing_infeasible_rate():
    full = complete_dataset(10, 2)
    with pytest.raises(ValueError, match="infeasible mask"):
        apply_random_missing_mask(full, MaskSpec("random-missing", 0.9, seed=0))


def test_random_missing_requires_complete_input():
    full = complete_dataset(10, 2)
    once = apply_random_missing_mask(full, MaskSpec("random-missing", 0.3, seed=0))
    with pytest.raises(ValueError, match="complete"):
        apply_random_missing_mask(once, MaskSpec("random-missing", 0.3, seed=0))


# ------------------------------------------------------------- paired sample


def test_paired_rate_one_keeps_everything():
    full = complete_dataset(9, 2)
    out = apply_paired_sample_mask(full, MaskSpec("paired-sample", 1.0, seed=1))
    for ids in out.availability:
        assert np.array_equal(ids, np.arange(9))


def test_paired_half_splits_singles_evenly():
    full = complete_dataset(100, 2)
    out = apply_paired_sample_mask(full, MaskSpec("paired-sample", 0.5, seed=2))
    n1, n2 = (ids.size for ids in out.availability)
    paired = np.intersect1d(*out.availability).size
    assert paired == 50
    assert n1 + n2 == 100 + paired
    assert abs(n1 - n2) <= 1


def test_paired_counts_match_protocol_arithmetic():
    # n_v ~ rate*n + (1-rate)*n/2 for both views
    n = 200
    full = complete_dataset(n, 2)
    out = apply_paired_sample_mask(full, MaskSpec("paired-sample", 0.3, seed=3))
    expect = 0.3 * n + 0.35 * n
    for ids in out.availability:
        assert abs(ids.size - expect) <= 1
    covered = np.zeros(n, dtype=bool)
    for ids in out.availability:
        covered[ids] = True
    assert covered.all()


def test_paired_requires_two_views():
    full = complete_dataset(10, 3)
    with pytest.raises(ValueError, match="exactly 2 views"):
        apply_paired_sample_mask(full, MaskSpec("paired-sample", 0.5, seed=0))


def test_paired_deterministic():
    full = complete_dataset(40, 2)
    spec = MaskSpec("paired-sample", 0.4, seed=9)
    a = apply_paired_sample_mask(full, spec)
    b = apply_paired_sample_mask(full, spec)
    for x, y in zip(a.availability, b.availability):
        assert np.array_equal(x, y)


def test_mask_spec_validation():
    with pytest.raises(ValueError, match="protocol"):
        MaskSpec("drop-everything", 0.5)
    with pytest.raises(ValueError, match="rate"):
        MaskSpec("random-missing", 1.5)


# -------------------------------------------------------------------- loading


def test_load_dataset_two_views(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 10))
    b = rng.normal(size=(6, 10))
    labels = np.array([3, 3, 5, 5, 5, 9, 9, 3, 5, 9])
    np.savetxt(tmp_path / "a.csv", a, delimiter=",")
    np.savetxt(tmp_path / "b.csv", b, delimiter=",")
    np.savetxt(tmp_path / "y.csv", labels, fmt="%d")
    ds = load_dataset(
        [tmp_path / "a.csv", tmp_path / "b.csv"], label_path=tmp_path / "y.csv"
    )
    assert ds.n_views == 2 and ds.n == 10
    assert ds.views[0].n_features == 4 and ds.views[1].n_features == 6
    # labels remapped to contiguous 0-based ids
    assert sorted(np.unique(ds.labels)) == [0, 1, 2]
    assert ds.labels[0] == ds.labels[1] == ds.labels[7]


def test_load_dataset_nan_cell_names_position(tmp_path):
    data = np.ones((3, 4))
    data[1, 2] = np.nan
    np.savetxt(tmp_path / "v.csv", data, delimiter=",")
    with pytest.raises(ValueError, match="row 1, column 2"):
        load_dataset([tmp_path / "v.csv"])


def test_load_dataset_dimension_mismatch(tmp_path):
    np.savetxt(tmp_path / "a.csv", np.ones((3, 10)), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.ones((3, 9)), delimiter=",")
    with pytest.raises(ValueError, match="differing column counts"):
        load_dataset([tmp_path / "a.csv", tmp_path / "b.csv"])


def test_load_dataset_label_length_mismatch(tmp_path):
    np.savetxt(tmp_path / "a.csv", np.ones((3, 5)), delimiter=",")
    np.savetxt(tmp_path / "y.csv", np.arange(4), fmt="%d")
    with pytest.raises(ValueError, match="label file has 4"):
        load_dataset([tmp_path / "a.csv"], label_path=tmp_path / "y.csv")


def test_save_load_roundtrip_incomplete(tmp_path):
    full = complete_dataset(12, 2, seed=8)
    full = MultiViewDataset(
        views=full.views,
        n=12,
        availability=full.availability,
        labels=np.arange(12) % 3,
    )
    masked = apply_random_missing_mask(full, MaskSpec("random-missing", 0.25, seed=1))
    paths = save_dataset(masked, tmp_path)
    back = load_dataset(paths["views"], paths["availability"], paths["labels"])
    assert back.n == 12
    for x, y in zip(back.availability, masked.availability):
        assert np.array_equal(x, y)
    for vx, vy in zip(back.views, masked.views):
        assert np.allclose(vx.data, vy.data, rtol=0, atol=0)
    assert np.array_equal(back.labels, masked.labels)


# -------------------------------------------------------------- normalization


def test_normalize_none_is_identity():
    ds = complete_dataset(6, 2, seed=1)
    out = normalize_views(ds, "none")
    for a, b in zip(ds.views, out.views):
        assert np.array_equal(a.data, b.data)


def test_normalize_unit_l2_column():
    view = ViewMatrix(view_id=0, data=np.array([[3.0, 0.0], [4.0, 0.0]]))
    ds = MultiViewDataset(views=(view,), n=2, availability=(np.arange(2),))
    out = normalize_views(ds, "unit-l2-column")
    assert np.allclose(out.views[0].data[:, 0], [0.6, 0.8])
    # zero-norm column left unchanged
    assert np.array_equal(out.views[0].data[:, 1], [0.0, 0.0])


def test_normalize_zscore_constant_row_is_zero():
    data = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    ds = MultiViewDataset(
        views=(ViewMatrix(view_id=0, data=data),), n=3, availability=(np.arange(3),)
    )
    out = normalize_views(ds, "zscore-row")
    assert np.array_equal(out.views[0].data[0], np.zeros(3))
    assert abs(out.views[0].data[1].mean()) < 1e-15
    assert abs(out.views[0].data[1].std() - 1.0) < 1e-12


def test_normalize_unknown_mode():
    ds = complete_dataset(4, 1)
    with pytest.raises(ValueError, match="unknown normalization"):
        normalize_views(ds, "minmax")


# ------------------------------------------------------------ type invariants


def test_view_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        ViewMatrix(view_id=0, data=np.array([[1.0, np.inf]]))


def test_dataset_requires_full_coverage():
    views = (ViewMatrix(view_id=0, data=np.ones((2, 2))),)
    with pytest.raises(ValueError, match="available in no view"):
        MultiViewDataset(views=views, n=3, availability=(np.array([0, 2]),))


def test_dataset_requires_increasing_ids():
    views = (ViewMatrix(view_id=0, data=np.ones((2, 2))),)
    with pytest.raises(ValueError, match="strictly increasing"):
        MultiViewDataset(views=views, n=2, availability=(np.array([1, 0]),))


def test_dataset_checks_label_length():
    views = (ViewMatrix(view_id=0, data=np.ones((2, 3))),)
    with pytest.raises(ValueError, match="length n=3"):
        MultiViewDataset(
            views=views, n=3, availability=(np.arange(3),), labels=np.array([0, 1])
        )


def test_indicators_cover_every_sample():
    full = complete_dataset(15, 3, seed=2)
    masked = apply_random_missing_mask(full, MaskSpec("random-missing", 0.4, seed=2))
    row_sums = sum(build_indicator(ids, masked.n).sum(axis=1) for ids in masked.availability)
    assert row_sums.min() >= 1
