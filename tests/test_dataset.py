import io
import multiprocessing
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import imvc.dataset
from imvc import (
    MaskSpec,
    MultiViewDataset,
    ViewMatrix,
    apply_mask,
    load_dataset,
    normalize_views,
    save_dataset,
)
from imvc.dataset import (
    _draw_random_missing,
    _repair_coverage,
    _round_half_up,
)
from imvc.harness import _blas_threads

from reference import build_indicator
from synthetic import save_csv_dataset


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
    out = apply_mask(full, MaskSpec("random-missing", 0.0, seed=3))
    for ids, view, oview in zip(out.availability, full.views, out.views):
        assert np.array_equal(ids, np.arange(8))
        assert np.array_equal(view.data, oview.data)


def test_random_missing_exact_counts_with_lucky_seed():
    # seed chosen so the coverage repair never fires: counts stay exact
    full = complete_dataset(10, 2)
    out = apply_mask(full, MaskSpec("random-missing", 0.5, seed=437))
    assert [ids.size for ids in out.availability] == [5, 5]
    covered = np.zeros(10, dtype=bool)
    for ids in out.availability:
        covered[ids] = True
    assert covered.all()


def test_random_missing_paper_rate_keeps_round_complement():
    full = complete_dataset(20, 5)
    out = apply_mask(full, MaskSpec("random-missing", 0.3, seed=0))
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
    a = apply_mask(full, spec)
    b = apply_mask(full, spec)
    for x, y in zip(a.availability, b.availability):
        assert np.array_equal(x, y)


def test_random_missing_columns_follow_availability():
    full = complete_dataset(12, 2, seed=5)
    out = apply_mask(full, MaskSpec("random-missing", 0.3, seed=5))
    for view, out_view, ids in zip(full.views, out.views, out.availability):
        assert np.array_equal(out_view.data, view.data[:, ids])


def test_random_missing_infeasible_rate():
    full = complete_dataset(10, 2)
    with pytest.raises(ValueError, match="infeasible mask"):
        apply_mask(full, MaskSpec("random-missing", 0.9, seed=0))


def test_random_missing_requires_complete_input():
    full = complete_dataset(10, 2)
    once = apply_mask(full, MaskSpec("random-missing", 0.3, seed=0))
    with pytest.raises(ValueError, match="complete"):
        apply_mask(once, MaskSpec("random-missing", 0.3, seed=0))
    # rate 0 runs incomplete data as it is, e.g. from availability sidecars
    assert apply_mask(once, MaskSpec("random-missing", 0.0, seed=0)) is once


# ------------------------------------------------------------- paired sample


def test_paired_rate_one_keeps_everything():
    full = complete_dataset(9, 2)
    out = apply_mask(full, MaskSpec("paired-sample", 1.0, seed=1))
    for ids in out.availability:
        assert np.array_equal(ids, np.arange(9))


def test_paired_half_splits_singles_evenly():
    full = complete_dataset(100, 2)
    out = apply_mask(full, MaskSpec("paired-sample", 0.5, seed=2))
    n1, n2 = (ids.size for ids in out.availability)
    paired = np.intersect1d(*out.availability).size
    assert paired == 50
    assert n1 + n2 == 100 + paired
    assert abs(n1 - n2) <= 1


def test_paired_counts_match_protocol_arithmetic():
    # n_v ~ rate*n + (1-rate)*n/2 for both views
    n = 200
    full = complete_dataset(n, 2)
    out = apply_mask(full, MaskSpec("paired-sample", 0.3, seed=3))
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
        apply_mask(full, MaskSpec("paired-sample", 0.5, seed=0))


def test_paired_deterministic():
    full = complete_dataset(40, 2)
    spec = MaskSpec("paired-sample", 0.4, seed=9)
    a = apply_mask(full, spec)
    b = apply_mask(full, spec)
    for x, y in zip(a.availability, b.availability):
        assert np.array_equal(x, y)


def test_paired_requires_a_complete_dataset():
    once = apply_mask(complete_dataset(10, 2), MaskSpec("random-missing", 0.3, seed=0))
    with pytest.raises(ValueError, match="^paired-sample masks require a complete dataset$"):
        apply_mask(once, MaskSpec("paired-sample", 0.5, seed=0))


def test_mask_spec_validation():
    with pytest.raises(ValueError, match="protocol"):
        MaskSpec("drop-everything", 0.5)
    with pytest.raises(ValueError, match="rate"):
        MaskSpec("random-missing", 1.5)


@pytest.mark.parametrize(
    "seed, message",
    [(2.5, "an integer"), (True, "an integer"), (-1, "non-negative")],
    ids=["2.5", "True", "-1"],
)
def test_mask_spec_seed_is_a_non_negative_integer(seed, message):
    # 2.5 was taken and failed in apply_mask inside numpy's SeedSequence, -1
    # failed there without naming the seed, and True was taken as 1
    with pytest.raises(ValueError, match=f"^seed must be {message}, got {seed!r}$"):
        MaskSpec("random-missing", 0.3, seed=seed)
    whole = MaskSpec("random-missing", 0.3, seed=4.0)
    assert whole.seed == 4 and type(whole.seed) is int


@pytest.mark.parametrize("rate", [True, "0.1", None], ids=["True", "str", "None"])
def test_mask_spec_rate_is_a_number(rate):
    # True was taken as rate 1, and "0.1" and None failed in a comparison
    # with a TypeError that did not name the rate
    message = f"rate must be a finite number, got {rate!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MaskSpec("paired-sample", rate)


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


@pytest.mark.parametrize(
    "labels, message",
    [
        (None, "need at least one view file"),
        ("0,1\n1,0\n0,1\n", "label file must be a single column"),
        ("0\n1.5\n0\n", "labels must be integers"),
    ],
    ids=["no-views", "two-column-labels", "non-integer-labels"],
)
def test_load_dataset_rejects_no_views_and_bad_label_files(tmp_path, labels, message):
    np.savetxt(tmp_path / "a.csv", np.ones((2, 3)), delimiter=",")
    if labels is None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_dataset([])
        return
    (tmp_path / "y.csv").write_text(labels)
    with pytest.raises(ValueError, match=f"{re.escape(str(tmp_path / 'y.csv'))}: {message}$"):
        load_dataset([tmp_path / "a.csv"], label_path=tmp_path / "y.csv")


def test_load_dataset_label_length_mismatch(tmp_path):
    np.savetxt(tmp_path / "a.csv", np.ones((3, 5)), delimiter=",")
    np.savetxt(tmp_path / "y.csv", np.arange(4), fmt="%d")
    with pytest.raises(ValueError, match="label file has 4"):
        load_dataset([tmp_path / "a.csv"], label_path=tmp_path / "y.csv")


def test_labels_longer_than_the_sidecars_samples_are_named(tmp_path):
    # with sidecars, n is the largest sample id + 1, whatever the label file holds
    paths = save_csv_dataset(_labeled_incomplete(), tmp_path)
    np.savetxt(paths["labels"], np.arange(42) % 4, fmt="%d")
    message = "label file has 42 entries but the dataset has 40 samples"
    with pytest.raises(ValueError, match=message):
        load_dataset(paths["views"], paths["availability"], paths["labels"])


def test_save_load_roundtrip_incomplete(tmp_path):
    full = complete_dataset(12, 2, seed=8)
    full = MultiViewDataset(
        views=full.views,
        n=12,
        availability=full.availability,
        labels=np.arange(12) % 3,
    )
    masked = apply_mask(full, MaskSpec("random-missing", 0.25, seed=1))
    paths = save_dataset(masked, tmp_path)
    back = load_dataset(paths["views"], paths["availability"], paths["labels"])
    assert back.n == 12
    for x, y in zip(back.availability, masked.availability):
        assert np.array_equal(x, y)
    for vx, vy in zip(back.views, masked.views):
        assert np.allclose(vx.data, vy.data, rtol=0, atol=0)
    assert np.array_equal(back.labels, masked.labels)


def test_save_load_roundtrip_names_each_view_by_its_distinct_id(tmp_path):
    # save_dataset names a view's files by its id, so ids (0, 0) would write
    # one file twice; MultiViewDataset refuses them
    views = (ViewMatrix(view_id=3, data=np.ones((2, 4))), ViewMatrix(view_id=1, data=np.eye(3, 4)))
    ds = MultiViewDataset(views=views, n=4, availability=(np.arange(4),) * 2)
    paths = save_dataset(ds, tmp_path)
    assert [Path(path).name for path in paths["views"]] == ["view_3.npy", "view_1.npy"]
    back = load_dataset(paths["views"], paths["availability"])
    for vx, vy in zip(back.views, ds.views):
        assert np.array_equal(vx.data, vy.data)


# ------------------------------------------------------- files read serially
# load_dataset reads every file in the calling process, in the order labels,
# sidecars, views, .npy and CSV alike; save_dataset writes .npy files there
# too. Neither starts a process.


@pytest.fixture
def no_fork(monkeypatch):
    """Make starting a process an error, so that a test fails if it does."""

    def fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", fork, raising=False)


def _labeled_incomplete(seed=3):
    full = complete_dataset(40, 3, seed=seed, m=5)
    full = MultiViewDataset(
        views=full.views, n=40, availability=full.availability, labels=np.arange(40) % 4 + 7
    )
    return apply_mask(full, MaskSpec("random-missing", 0.3, seed=seed))


def test_a_csv_load_returns_its_input_arrays_in_this_process(tmp_path, no_fork):
    ds = _labeled_incomplete()
    paths = save_csv_dataset(ds, tmp_path)
    back = load_dataset(paths["views"], paths["availability"], paths["labels"])
    for got, want in zip(back.views, ds.views):
        assert got.data.dtype == np.float64 and np.array_equal(got.data, want.data)
        assert not got.data.flags.writeable
    for got, want in zip(back.availability, ds.availability):
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert not got.flags.writeable
    assert back.labels.dtype == np.int64 and np.array_equal(back.labels, ds.labels - 7)
    assert not back.labels.flags.writeable


def test_npy_files_round_trip_bit_for_bit_and_start_no_process(tmp_path, no_fork):
    ds = _labeled_incomplete()
    # the extremes of float64 too: -0.0, the least subnormal and the largest
    data = ds.views[0].data.copy()
    data[0, :3] = [-0.0, 5e-324, np.finfo(np.float64).max]
    ds = MultiViewDataset(
        views=(ViewMatrix(view_id=0, data=data),) + ds.views[1:],
        n=ds.n, availability=ds.availability, labels=ds.labels,
    )
    paths = save_dataset(ds, tmp_path)
    back = load_dataset(paths["views"], paths["availability"], paths["labels"])
    names = [f"{stem}_{v}.npy" for v in range(3) for stem in ("view", "avail")]
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["labels.npy"])
    for got, want in zip(back.views, ds.views):
        assert got.data.dtype == np.float64 and got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()
        assert not got.data.flags.writeable
    for got, want in zip(back.availability, ds.availability):
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert back.labels.dtype == np.int64 and np.array_equal(back.labels, ds.labels - 7)
    assert not back.labels.flags.writeable


def _garble_views_1_and_2(paths):
    # view 2 is the bigger file, so a parse by size would meet it first
    with open(paths["views"][1], "a") as f:
        f.write("1.0,x\n")
    with open(paths["views"][2], "w") as f:
        f.write("y,2.0\n" * 5000)


def test_the_first_garbled_view_in_view_order_is_named(tmp_path, no_fork, monkeypatch):
    # the same error on one usable CPU and on three, and the caller's
    # OpenBLAS threads untouched: a load does not depend on the CPUs
    paths = save_csv_dataset(_labeled_incomplete(), tmp_path)
    _garble_views_1_and_2(paths)
    threads = _blas_threads()
    messages = []
    for cpus in ({0, 1, 2}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        with pytest.raises(ValueError) as info:
            load_dataset(paths["views"], paths["availability"], paths["labels"])
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{paths['views'][1]}: could not parse")
    assert _blas_threads() == threads


def test_the_first_faulty_view_in_view_order_is_named_whatever_its_format(tmp_path, no_fork):
    # a garbled CSV view 0, a cut-short .npy view 1 and a garbled CSV view 2:
    # the views are read in view order, so view 0 is the one named
    ds = _labeled_incomplete()
    csv = save_csv_dataset(ds, tmp_path / "csv")
    npy = save_dataset(ds, tmp_path / "npy")
    with open(csv["views"][0], "a") as f:
        f.write("1.0,x\n")
    Path(csv["views"][2]).write_text("y,2.0\n" * 5000)
    view_1 = Path(npy["views"][1])
    view_1.write_bytes(view_1.read_bytes()[:-8])
    with pytest.raises(ValueError) as info:
        load_dataset([csv["views"][0], npy["views"][1], csv["views"][2]], npy["availability"])
    assert str(info.value).startswith(f"{csv['views'][0]}: could not parse as a numeric CSV")


def test_no_process_outlives_a_load_or_a_save(tmp_path, no_fork):
    save_dataset(_labeled_incomplete(), tmp_path / "npy")
    paths = save_csv_dataset(_labeled_incomplete(), tmp_path / "csv")
    load_dataset(paths["views"], paths["availability"], paths["labels"])
    assert multiprocessing.active_children() == []
    _garble_views_1_and_2(paths)
    with pytest.raises(ValueError, match="could not parse"):
        load_dataset(paths["views"], paths["availability"], paths["labels"])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fault", ["sidecar count", "missing labels", "descending sidecar"])
def test_labels_and_sidecars_fail_before_any_view_is_parsed(tmp_path, no_fork, monkeypatch, fault):
    paths = save_csv_dataset(_labeled_incomplete(), tmp_path)
    views, sidecars, labels = paths["views"], paths["availability"], paths["labels"]
    if fault == "sidecar count":
        sidecars, message = sidecars[:2], "one availability sidecar per view is required"
    elif fault == "missing labels":
        labels = str(tmp_path / "missing.csv")
        message = labels
    else:
        Path(sidecars[1]).write_text("2\n1\n0\n")
        message = f"{sidecars[1]}: an availability sidecar must be one column"
    read = []
    real = imvc.dataset._load_matrix

    def recorded(path, *args, **kwargs):
        read.append(str(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(imvc.dataset, "_load_matrix", recorded)
    with pytest.raises((OSError, ValueError), match=re.escape(message)):
        load_dataset(views, sidecars, labels)
    assert not set(read) & set(views)  # no view was read


@pytest.mark.parametrize("save", [save_csv_dataset, save_dataset], ids=["serial", "npy"])
def test_a_load_holds_its_data_and_one_view_more_at_most(tmp_path, save):
    # each parsed view goes to its ViewMatrix as it is: holding every parsed
    # view while copies of them are made would peak at twice the data
    full = complete_dataset(1000, 4, seed=4, m=40)
    full = MultiViewDataset(
        views=full.views, n=1000, availability=full.availability, labels=np.arange(1000) % 3
    )
    paths = save(full, tmp_path)
    tracemalloc.start()
    try:
        ds = load_dataset(paths["views"], paths["availability"], paths["labels"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for view, want in zip(ds.views, full.views):
        assert np.array_equal(view.data, want.data)
    data = sum(a.nbytes for a in (*(v.data for v in ds.views), *ds.availability, ds.labels))
    largest = max(view.data.nbytes for view in ds.views)
    assert peak < data + largest + largest // 2


@pytest.mark.parametrize("save", [save_csv_dataset, save_dataset], ids=["serial", "npy"])
def test_a_load_and_a_mask_hold_each_view_once(tmp_path, save):
    # an array that the library has just read or gathered is handed to its
    # ViewMatrix, which makes it read-only rather than copy it: neither call
    # holds a view twice (a copy would peak at a whole view more)
    full = complete_dataset(1000, 4, seed=4, m=40)
    full = MultiViewDataset(
        views=full.views, n=1000, availability=full.availability, labels=np.arange(1000) % 3
    )
    paths = save(full, tmp_path)
    tracemalloc.start()
    try:
        ds = load_dataset(paths["views"], paths["availability"], paths["labels"])
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        masked = apply_mask(ds, MaskSpec("random-missing", 0.3, seed=1))
        mask_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    data = sum(a.nbytes for a in (*(v.data for v in ds.views), *ds.availability, ds.labels))
    assert load_peak < data + max(view.data.nbytes for view in ds.views)
    masked_data = sum(a.nbytes for a in (*(v.data for v in masked.views), *masked.availability))
    assert mask_peak < masked_data + max(view.data.nbytes for view in masked.views) // 2
    for loaded, view, ids, want in zip(ds.views, masked.views, masked.availability, full.views):
        for got, expect in ((loaded.data, want.data), (view.data, want.data[:, ids])):
            assert np.array_equal(got, expect)
            assert got.flags.c_contiguous and not got.flags.writeable


def test_a_view_made_from_a_callers_array_is_a_read_only_copy():
    data = np.arange(6.0).reshape(2, 3)
    view = ViewMatrix(view_id=0, data=data)
    data[0, 0] = 7.0
    assert view.data[0, 0] == 0.0 and data.flags.writeable and not view.data.flags.writeable


def test_a_mask_hands_its_ids_over_without_a_copy():
    # the availability arrays that apply_mask draws and the labels it shares
    # are made read-only in place: its peak exceeds the masked data by the
    # gathers' scratch only (a copy of the ids and labels reads 0.16 of a view)
    full = complete_dataset(1000, 4, seed=4, m=40)
    full = MultiViewDataset(
        views=full.views, n=1000, availability=full.availability, labels=np.arange(1000) % 3
    )
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        masked = apply_mask(full, MaskSpec("random-missing", 0.3, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    data = sum(a.nbytes for a in (*(v.data for v in masked.views), *masked.availability))
    assert peak - data <= 0.1 * max(view.data.nbytes for view in masked.views)
    assert masked.labels is full.labels
    for ids in masked.availability:
        assert ids.flags.c_contiguous and not ids.flags.writeable


def test_a_dataset_made_from_a_callers_ids_holds_read_only_copies():
    ids, labels = np.arange(3), np.array([0, 1, 0])
    view = ViewMatrix(view_id=0, data=np.ones((2, 3)))
    ds = MultiViewDataset(views=(view,), n=3, availability=(ids,), labels=labels)
    ids[0], labels[0] = 9, 9
    assert ds.availability[0][0] == 0 and ds.labels[0] == 0
    assert ids.flags.writeable and labels.flags.writeable
    assert not ds.availability[0].flags.writeable and not ds.labels.flags.writeable


def _load_without_fork(*args):
    def fork():
        raise AssertionError("a process was started")

    os.fork = fork  # in the pool's worker only
    return load_dataset(*args)


def test_a_daemon_process_reads_the_files_itself(tmp_path):
    # a daemon process may start no children: a pool worker loads the files
    # itself and gets what this process gets
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the platform has no fork: there is no daemon to load in")
    paths = save_csv_dataset(_labeled_incomplete(), tmp_path)
    args = (paths["views"], paths["availability"], paths["labels"])
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply(_load_without_fork, args)
    here = load_dataset(*args)
    assert pooled.n == here.n == 40
    for got, want in zip(pooled.views, here.views):
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(pooled.labels, here.labels)


# ------------------------------------------------------------------ .npy files


def test_a_load_of_mixed_csv_and_npy_files_equals_an_all_csv_load(tmp_path, no_fork):
    ds = _labeled_incomplete()
    csv = save_csv_dataset(ds, tmp_path / "csv")
    npy = save_dataset(ds, tmp_path / "npy")
    want = load_dataset(csv["views"], csv["availability"], csv["labels"])
    got = load_dataset(
        [csv["views"][0], npy["views"][1], csv["views"][2]],
        [npy["availability"][0], csv["availability"][1], npy["availability"][2]],
        npy["labels"],
    )
    for a, b in zip(got.views, want.views):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()
    for a, b in zip(got.availability, want.availability):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(got.labels, want.labels)


def _save_an_object_array(path):
    np.save(path, np.array([[1.0, "a"]], dtype=object), allow_pickle=True)


def _put_nan_at_1_2(path):
    data = np.load(path)
    data[1, 2] = np.nan
    np.save(path, data)


def _claim_8_pib(path):
    # a header whose shape the file's 64 bytes cannot hold: the read
    # allocates its array from the header before it reads any data, and
    # 2**50 float64 values either fail to allocate at once (MemoryError) or
    # reserve address space that the short read never touches
    with open(path, "wb") as f:
        header = {"descr": "<f8", "fortran_order": False, "shape": (2**50,)}
        np.lib.format.write_array_header_1_0(f, header)
        f.write(bytes(64))


def _npz_bytes():
    buf = io.BytesIO()
    np.savez(buf, a=np.ones((5, 28)))
    return buf.getvalue()


# each fault: (the file it is put in, how, a part of the error message);
# a file that numpy's reader refuses gets numpy's reason, whose words vary
# with its version, after this one
UNREAD = "could not parse as a .npy matrix: "
NPY_FAULTS = {
    "pickled object array": ("views", _save_an_object_array, UNREAD),
    "3-D array": ("views", lambda p: np.save(p, np.ones((5, 28, 1))), "got 3-D float64"),
    # a label file or a sidecar may be 1-D, but a view's axes would be a guess
    "1-D view": ("views", lambda p: np.save(p, np.load(p)[0]), "need a 2-D array of kind 'iuf'"),
    "complex dtype": ("views", lambda p: np.save(p, np.ones((5, 28), complex)), "complex128"),
    "structured dtype": (
        "views", lambda p: np.save(p, np.zeros(28, dtype=[("a", "f8"), ("b", "i4")])), "got 1-D",
    ),
    "float sidecar": (
        "availability", lambda p: np.save(p, np.load(p).astype(np.float64)),
        "need a 1-D or 2-D array of kind 'iu', got 1-D float64",
    ),
    "NaN": ("views", _put_nan_at_1_2, "non-finite value at row 1, column 2"),
    "truncated header": ("views", lambda p: p.write_bytes(p.read_bytes()[:30]), UNREAD),
    "truncated body": ("views", lambda p: p.write_bytes(p.read_bytes()[:-8]), UNREAD),
    "header claiming 8 PiB": ("views", _claim_8_pib, UNREAD),
    "empty file": ("labels", lambda p: p.write_bytes(b""), UNREAD),
    "npz renamed to npy": ("views", lambda p: p.write_bytes(_npz_bytes()), UNREAD),
}


@pytest.mark.parametrize("fault", NPY_FAULTS)
def test_a_malformed_npy_file_is_one_error_that_names_it(tmp_path, no_fork, fault):
    paths = save_dataset(_labeled_incomplete(), tmp_path)
    key, spoil, message = NPY_FAULTS[fault]
    path = Path(paths[key] if key == "labels" else paths[key][1])
    spoil(path)
    with pytest.raises(ValueError) as info:
        load_dataset(paths["views"], paths["availability"], paths["labels"])
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_running_out_of_memory_while_parsing_a_csv_view_is_not_a_bad_file(
    tmp_path, monkeypatch
):
    paths = save_csv_dataset(_labeled_incomplete(), tmp_path)

    def loadtxt(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with pytest.raises(MemoryError):
        load_dataset(paths["views"])


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


@pytest.mark.parametrize("shape", [(3,), (0, 3), (3, 0), (2, 2, 2)])
def test_view_matrix_rejects_data_that_is_not_a_non_empty_matrix(shape):
    message = (
        "view 4: data must be a 2-D matrix with at least one row and one column, "
        f"got shape {shape}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ViewMatrix(view_id=4, data=np.ones(shape))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"views": ()}, "dataset needs at least one view"),
        ({"availability": (np.arange(3),) * 2}, "1 views but 2 availability lists"),
        (
            {"availability": (np.arange(2),)},
            "view 0: availability length 2 does not match 3 data columns",
        ),
        ({"availability": (np.array([[0, 1, 2]]),)}, "view 0: availability length 3 does not match"),
        ({"availability": (np.array([-1, 0, 1]),)}, "view 0: sample ids must lie in 0..2"),
        ({"availability": (np.array([0, 1, 3]),)}, "view 0: sample ids must lie in 0..2"),
        ({"labels": np.array([0, -1, 1])}, "labels must be non-negative"),
        (
            {
                "views": (ViewMatrix(view_id=0, data=np.ones((2, 3))),) * 2,
                "availability": (np.arange(3),) * 2,
            },
            "view ids must be distinct, got [0, 0]",
        ),
    ],
    ids=[
        "no-views", "count", "length", "not-1-d", "below-0", "above-n", "negative-labels",
        "repeated-view-id",
    ],
)
def test_dataset_rejects_inconsistent_fields(fields, message):
    values = {
        "views": (ViewMatrix(view_id=0, data=np.ones((2, 3))),),
        "n": 3,
        "availability": (np.arange(3),),
        **fields,
    }
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        MultiViewDataset(**values)


@pytest.mark.parametrize(
    "n, message",
    [(2.5, "an integer"), (True, "an integer"), (-1, "at least 1"), (0, "at least 1")],
    ids=["2.5", "True", "-1", "0"],
)
def test_dataset_n_is_a_count(n, message):
    # each failed inside numpy (2.5 and True in np.zeros, -1 as "negative
    # dimensions"), or as a sample-id range of 0..-1 for n=0, naming no n
    views = (ViewMatrix(view_id=0, data=np.ones((2, 3))),)
    with pytest.raises(ValueError, match=f"^n must be {message}, got {n!r}$"):
        MultiViewDataset(views=views, n=n, availability=(np.arange(3),))
    whole = MultiViewDataset(views=views, n=3.0, availability=(np.arange(3),))
    assert whole.n == 3 and type(whole.n) is int


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
    masked = apply_mask(full, MaskSpec("random-missing", 0.4, seed=2))
    row_sums = sum(build_indicator(ids, masked.n).sum(axis=1) for ids in masked.availability)
    assert row_sums.min() >= 1
