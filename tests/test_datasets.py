"""Dataset generation, splitting, label noise, augmentation, CSV I/O."""

import numpy as np
import pytest

from caliblab.datasets import (
    DatasetSpec,
    augment,
    blob_centers,
    flip_vertical,
    load_csv,
    make_dataset,
    save_csv,
)


def nearest_center_labels(points, classes):
    centers = blob_centers(classes)
    d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    return np.argmin(d, axis=1)


def all_points(ds):
    return np.vstack([ds.x_train, ds.x_val, ds.x_test]), np.concatenate(
        [ds.y_train, ds.y_val, ds.y_test]
    )


def test_generation_is_seed_deterministic():
    spec = DatasetSpec(kind="blobs", samples=200, classes=3, seed=5)
    a = make_dataset(spec)
    b = make_dataset(spec)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_test, b.y_test)
    c = make_dataset(DatasetSpec(kind="blobs", samples=200, classes=3, seed=6))
    assert not np.array_equal(a.x_train, c.x_train)


def test_split_sizes_follow_fractions():
    ds = make_dataset(DatasetSpec(samples=100))
    assert ds.x_train.shape == (80, 2)
    assert ds.x_val.shape == (10, 2)
    assert ds.x_test.shape == (10, 2)
    assert ds.n_features == 2


def test_splits_are_disjoint_and_exhaustive():
    spec = DatasetSpec(kind="blobs", samples=97, classes=2, noise=0.3, seed=1)
    ds = make_dataset(spec)
    pts, _ = all_points(ds)
    assert pts.shape[0] == 97
    # blob points are continuous, so duplicates would mean split overlap
    assert np.unique(pts, axis=0).shape[0] == 97


def test_empty_split_is_rejected():
    with pytest.raises(ValueError, match="empty part"):
        make_dataset(DatasetSpec(samples=5, train_frac=0.9, val_frac=0.05, test_frac=0.05))


def test_label_noise_flips_exact_count_to_other_classes():
    spec = DatasetSpec(
        kind="blobs", samples=1000, classes=4, noise=0.0, label_noise=0.15, seed=3
    )
    ds = make_dataset(spec)
    pts, labels = all_points(ds)
    clean = nearest_center_labels(pts, 4)  # noise 0: points sit on the centers
    flipped = labels != clean
    assert int(flipped.sum()) == 150
    assert np.all((labels >= 0) & (labels < 4))


def test_zero_noise_blobs_sit_on_centers():
    ds = make_dataset(DatasetSpec(kind="blobs", samples=10, classes=2, noise=0.0))
    pts, labels = all_points(ds)
    centers = blob_centers(2)
    assert np.allclose(pts, centers[labels])


def test_blobs_are_linearly_separable_at_low_noise():
    ds = make_dataset(DatasetSpec(kind="blobs", samples=300, classes=3, noise=0.3, seed=2))
    pts, labels = all_points(ds)
    assert np.mean(nearest_center_labels(pts, 3) == labels) == 1.0


def test_label_noise_caps_reachable_accuracy():
    spec = DatasetSpec(
        kind="blobs", samples=2000, classes=2, noise=0.5, label_noise=0.15, seed=4
    )
    ds = make_dataset(spec)
    pts, labels = all_points(ds)
    acc = np.mean(nearest_center_labels(pts, 2) == labels)
    assert abs(acc - 0.85) < 0.02


def test_rings_have_unit_spaced_radii():
    ds = make_dataset(DatasetSpec(kind="rings", samples=90, classes=3, noise=0.0, seed=5))
    pts, labels = all_points(ds)
    radii = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(radii - (labels + 1.0))) < 1e-9


def test_two_moons_requires_two_classes():
    with pytest.raises(ValueError, match="two-moons"):
        DatasetSpec(kind="two-moons", classes=3).validate()
    ds = make_dataset(DatasetSpec(kind="two-moons", samples=60, noise=0.1, seed=6))
    assert ds.n_classes == 2


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="kind"):
        DatasetSpec(kind="spiral").validate()
    with pytest.raises(ValueError, match="classes"):
        DatasetSpec(classes=1).validate()
    with pytest.raises(ValueError, match="label_noise"):
        DatasetSpec(label_noise=1.0).validate()
    with pytest.raises(ValueError, match="sum to 1"):
        DatasetSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2).validate()
    with pytest.raises(ValueError, match="path"):
        DatasetSpec(kind="csv").validate()
    with pytest.raises(ValueError, match="noise"):
        DatasetSpec(noise=-0.1).validate()


# -- augmentation --------------------------------------------------------------


def test_flip_vertical_is_an_involution():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((20, 2))
    mask = rng.random(20) < 0.5
    assert np.array_equal(flip_vertical(flip_vertical(pts, mask), mask), pts)


def test_augment_preserves_labels_and_class_geometry():
    spec = DatasetSpec(kind="blobs", samples=400, classes=3, noise=0.4, seed=8)
    ds = make_dataset(spec)
    rng = np.random.default_rng(9)
    aug_x, aug_y = augment(ds.x_train, ds.y_train, rng, spec)
    assert aug_y is ds.y_train
    assert aug_x.shape == ds.x_train.shape
    assert not np.array_equal(aug_x, ds.x_train)
    # nearest-center class of each augmented point is unchanged
    before = nearest_center_labels(ds.x_train, 3)
    after = nearest_center_labels(aug_x, 3)
    assert np.mean(before == after) > 0.99


def test_augment_at_zero_noise_only_mirrors_exact_centers():
    spec = DatasetSpec(kind="blobs", samples=20, classes=2, noise=0.0)
    ds = make_dataset(spec)
    aug_x, _ = augment(ds.x_train, ds.y_train, np.random.default_rng(0), spec)
    # flipping y = 0 and adding zero jitter leaves every point on its center
    assert np.array_equal(aug_x, ds.x_train)


def test_augment_passes_non_blob_kinds_through():
    spec = DatasetSpec(kind="rings", samples=60, classes=2, noise=0.1, seed=10)
    ds = make_dataset(spec)
    aug_x, aug_y = augment(ds.x_train, ds.y_train, np.random.default_rng(1), spec)
    assert aug_x is ds.x_train
    assert aug_y is ds.y_train


def test_augment_is_rng_deterministic():
    spec = DatasetSpec(kind="blobs", samples=50, classes=2, noise=0.5, seed=11)
    ds = make_dataset(spec)
    a, _ = augment(ds.x_train, ds.y_train, np.random.default_rng(2), spec)
    b, _ = augment(ds.x_train, ds.y_train, np.random.default_rng(2), spec)
    assert np.array_equal(a, b)


# -- CSV ------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((17, 3))
    labels = rng.integers(0, 4, 17)
    path = tmp_path / "data.csv"
    save_csv(path, feats, labels)
    loaded_x, loaded_y = load_csv(path)
    assert np.array_equal(loaded_x, feats)
    assert np.array_equal(loaded_y, labels)


def test_csv_dataset_infers_class_count(tmp_path):
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((40, 2))
    labels = np.array([0, 1, 2, 3] * 10)
    path = tmp_path / "data.csv"
    save_csv(path, feats, labels)
    ds = make_dataset(
        DatasetSpec(
            kind="csv",
            path=str(path),
            samples=40,
            train_frac=0.5,
            val_frac=0.25,
            test_frac=0.25,
        )
    )
    assert ds.n_classes == 4
    pts, _ = all_points(ds)
    assert pts.shape == (40, 2)


def test_csv_errors_name_one_based_lines(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("feat_0,feat_1,label\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)

    path.write_text("feat_0,feat_1,label\n1.0,2.0,0\nx,2.0,1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path)

    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="line 1.*header"):
        load_csv(path)

    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(path)

    path.write_text("feat_0,feat_1,label\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)

    path.write_text("feat_0,feat_1,label\n1.0,2.0,-1\n")
    with pytest.raises(ValueError, match="negative label"):
        load_csv(path)

    path.write_text("feat_0,feat_1,label\n1.0,2.0,0\n3.0,4.0,0\n")
    with pytest.raises(ValueError, match="two distinct classes"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
def test_csv_rejects_non_finite_features_naming_the_line(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"feat_0,feat_1,label\n1.0,2.0,0\n3.0,{cell},1\n")
    with pytest.raises(ValueError, match="line 3: non-finite feature value"):
        load_csv(path)
