import numpy as np
import pytest

from blindtrain.data import DataError, Dataset, gen_blobs, load_csv


# -- container ---------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int))
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 3)), np.zeros(4, dtype=int))
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.array([-1, 0]))
    ds = Dataset(np.zeros((3, 5)), np.array([0, 1, 2, 1, 0]))
    assert ds.n_samples == 5 and ds.n_classes == 3


# -- blobs ---------------------------------------------------------------

def test_blobs_shapes_and_determinism():
    ds = gen_blobs(10, 3, 2, separation=5.0, seed=4)
    assert ds.features.shape == (2, 30)
    assert ds.labels.shape == (30,)
    assert sorted(set(ds.labels)) == [0, 1, 2]
    again = gen_blobs(10, 3, 2, separation=5.0, seed=4)
    assert ds.features.tobytes() == again.features.tobytes()
    assert gen_blobs(10, 3, 2, 5.0, seed=5).features.tobytes() != ds.features.tobytes()


def test_blobs_centers_separate():
    ds = gen_blobs(200, 2, 2, separation=10.0, seed=0)
    c0 = ds.features[:, ds.labels == 0].mean(axis=1)
    c1 = ds.features[:, ds.labels == 1].mean(axis=1)
    assert np.linalg.norm(c1 - c0) > 8.0


def test_blobs_zero_separation_collapses():
    ds = gen_blobs(500, 2, 2, separation=0.0, seed=1)
    c0 = ds.features[:, ds.labels == 0].mean(axis=1)
    c1 = ds.features[:, ds.labels == 1].mean(axis=1)
    assert np.linalg.norm(c1 - c0) < 0.3


def test_blobs_wrap_classes_beyond_dim():
    # 4 classes in 2 dims: classes 2 and 3 reuse the axes farther out
    ds = gen_blobs(50, 4, 2, separation=6.0, seed=2)
    c2 = ds.features[:, ds.labels == 2].mean(axis=1)
    assert c2[0] > 8.0  # 2 steps of 6 along axis 0


def test_blobs_validation():
    for bad in [(0, 2, 2), (5, 1, 2), (5, 2, 0)]:
        with pytest.raises(DataError):
            gen_blobs(bad[0], bad[1], bad[2], 1.0, seed=0)


# -- csv -------------------------------------------------------------------

def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_csv_values_are_read_as_written(tmp_path):
    """Every feature comes back bit for bit: nothing is rescaled, so a
    row reads the same whichever other rows share its file."""
    rows = [(1, ["0.5", "2.0", "1e-300"]), (0, ["1.5", "-1.0", "0.1"]),
            (1, ["2.5", "0.0", "-7.25e10"])]
    path = write(tmp_path, "".join(f"{y},{','.join(f)}\n" for y, f in rows))
    ds = load_csv(path)
    expected = np.array([[float(v) for v in f] for _, f in rows]).T
    assert ds.features.shape == (3, 3)
    assert ds.features.tobytes() == expected.tobytes()
    assert np.array_equal(ds.labels, [1, 0, 1])


def test_csv_header_detected_and_skipped(tmp_path):
    path = write(tmp_path, "label,x,y\n0,1.0,2.0\n1,3.0,4.0\n")
    ds = load_csv(path)
    assert ds.n_samples == 2
    assert np.array_equal(ds.labels, [0, 1])


def test_csv_blank_lines_ignored(tmp_path):
    path = write(tmp_path, "0,1.0\n\n1,2.0\n\n")
    assert load_csv(path).n_samples == 2


def test_csv_errors_cite_line_numbers(tmp_path):
    bad_cell = write(tmp_path, "0,1.0\n1,banana\n", "bad_cell.csv")
    with pytest.raises(DataError, match="2"):
        load_csv(bad_cell)
    bad_label = write(tmp_path, "0,1.0\n1.5,2.0\n", "bad_label.csv")
    with pytest.raises(DataError, match="2"):
        load_csv(bad_label)
    neg_label = write(tmp_path, "-1,1.0\n", "neg.csv")
    with pytest.raises(DataError, match="label"):
        load_csv(neg_label)
    for name, text, line in [("nan-feature", "0,1.0\n1,nan\n", 2),
                             ("inf-feature", "0,1.0\n0,1.0\n1,-inf\n", 3),
                             ("nan-label", "0,1.0\nNaN,2.0\n", 2),
                             ("inf-label", "0,1.0\ninf,2.0\n", 2),
                             ("nan-first-line", "0,nan\n1,2.0\n", 1)]:
        path = write(tmp_path, text, f"{name}.csv")
        with pytest.raises(DataError, match=f"{name}.csv:{line}: non-finite cell"):
            load_csv(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = write(tmp_path, "0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DataError, match="features"):
        load_csv(path)


def test_csv_rejects_empty_and_header_only(tmp_path):
    empty = write(tmp_path, "", "empty.csv")
    with pytest.raises(DataError, match="no data"):
        load_csv(empty)
    header_only = write(tmp_path, "label,x\n", "header.csv")
    with pytest.raises(DataError, match="no data"):
        load_csv(header_only)


def test_csv_missing_features_column(tmp_path):
    path = write(tmp_path, "0\n")
    with pytest.raises(DataError, match="at least one feature"):
        load_csv(path)
