"""Dataset generation, on-disk format, shifts, and few-shot splits."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from coprompt.checkpoints import canonical_json
from coprompt.datasets import (
    IMAGES_VERSION,
    MAGIC,
    VARIANT_SHIFTS,
    Dataset,
    DatasetError,
    build_default_suite,
    build_family_manifest,
    generate_dataset,
    make_fewshot_split,
    make_shifted_variant,
)
from coprompt.encoders import Tokenizer

from helpers import nearest_centroid_accuracy, write_version_1_images


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return build_default_suite(str(tmp_path_factory.mktemp("suite")))


@pytest.fixture(scope="module")
def source(suite):
    return suite["fields_a"]


def test_regeneration_is_byte_identical(tmp_path, source):
    again = build_default_suite(str(tmp_path / "again"))
    assert again["fields_a"].content_hash == source.content_hash
    b1 = open(f"{source.directory}/images.bin", "rb").read()
    b2 = open(f"{again['fields_a'].directory}/images.bin", "rb").read()
    assert b1 == b2


def test_load_roundtrip(source):
    loaded = Dataset.load(source.directory)
    assert loaded.content_hash == source.content_hash
    assert loaded.manifest.class_names == source.manifest.class_names
    assert np.array_equal(loaded.pixels[17], source.pixels[17])


def test_images_bin_is_the_header_then_the_pixels_for_every_suite_member(suite):
    for name, ds in suite.items():
        loaded = Dataset.load(ds.directory)
        assert np.array_equal(loaded.pixels, ds.pixels)
        assert loaded.pixels.flags.c_contiguous, name
        header = MAGIC + np.asarray([IMAGES_VERSION, len(loaded.pixels)], "<u4").tobytes()
        assert (open(f"{ds.directory}/images.bin", "rb").read()
                == header + loaded.pixels.tobytes()), name


def test_content_hash_is_sha256_of_the_manifest_then_the_pixels(suite):
    """The block-wise hash is the definition every `dataset_hash` relies on."""
    for name, ds in suite.items():
        payload = canonical_json(ds.manifest.to_dict()).encode() + ds.pixels.tobytes()
        assert ds.content_hash == hashlib.sha256(payload).hexdigest(), name


def _write(name, text):
    return lambda directory: (directory / name).write_text(text)


def _delete(name):
    return lambda directory: (directory / name).unlink()


def _to_directory(name):
    def apply(directory):
        (directory / name).unlink()
        (directory / name).mkdir()
    return apply


def _edit_manifest(edit):
    def apply(directory):
        manifest = json.loads((directory / "manifest.json").read_text())
        edit(manifest)
        (directory / "manifest.json").write_text(json.dumps(manifest))
    return apply


def _edit_split(**values):
    return _edit_manifest(lambda m: m["split"].update(values))


def _swap_class_ids(m):
    m["classes"][0]["id"], m["classes"][1]["id"] = 1, 0


@pytest.mark.parametrize("corrupt, name, message", [
    (_delete("manifest.json"), "manifest.json", "missing file"),
    (_write("manifest.json", '{"x": '), "manifest.json", "Expecting"),
    (_write("manifest.json", '{"x": 1}'), "manifest.json", "unknown dataset manifest keys"),
    (_delete("images.bin"), "images.bin", "missing file"),
    (write_version_1_images, "images.bin", "version 1, not 2; re-run gen-data"),
    (_edit_split(base=[0, 99]), "manifest.json", r"split class ids \[99\]"),
    (_edit_split(novel=[-1]), "manifest.json", r"split class ids \[-1\]"),
    (_edit_manifest(_swap_class_ids), "manifest.json", "at position 0 has id 1"),
    (_edit_split(train=-1, val=2), "manifest.json", "'split.train' must be >= 0"),
    (_edit_split(train=0, test=0), "manifest.json", "no image per class"),
    (_edit_manifest(lambda m: m.update(noise=-1)), "manifest.json", "'noise' must be >= 0"),
    (_to_directory("manifest.json"), "manifest.json", "not a regular file"),
    (_to_directory("images.bin"), "images.bin", "not a regular file"),
    (_edit_manifest(lambda m: m.update(format_version=7)), "manifest.json",
     "'format_version' is 7, not 1; re-run gen-data"),
], ids=["no_manifest", "manifest_not_json", "manifest_unknown_key", "no_images",
        "images_format_1", "base_id_out_of_range", "novel_id_negative",
        "class_id_not_its_position", "negative_count", "no_image_per_class",
        "negative_noise", "manifest_is_a_directory", "images_is_a_directory",
        "manifest_format_7"])
def test_load_refuses_a_bad_directory_with_one_error_type(tmp_path, corrupt, name, message):
    """Every refusal is a `DatasetError` that names the bad file once."""
    directory = tmp_path / "ds"
    manifest = build_family_manifest("tiny", ("crimson", "azure", "jade"), seed=3,
                                     split_counts=(1, 0, 1))
    generate_dataset(manifest, str(directory))
    corrupt(directory)
    with pytest.raises(DatasetError, match=message) as info:
        Dataset.load(str(directory))
    assert str(info.value).count(str(directory / name)) == 1


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _class_block_bytes(ds):
    return ds.manifest.split.per_class * ds.pixels[0].nbytes


def test_generation_and_shifts_hold_one_image_set(tmp_path, source):
    """Generating a dataset or a shifted variant never holds
    a second copy of the image set: peak within 1.25x the pixel bytes, and
    within 3 class blocks, since both are written one class block at a time."""
    bound = min(1.25 * source.pixels.nbytes, 3 * _class_block_bytes(source))
    assert _traced_peak(lambda: generate_dataset(source.manifest, str(tmp_path / "g"))) \
        <= bound
    for shift in VARIANT_SHIFTS:
        peak = _traced_peak(lambda: make_shifted_variant(source, shift, str(tmp_path / shift)))
        assert peak <= bound, shift


def test_load_maps_the_file_read_only(source):
    """Loading copies no pixels: they are a read-only mapping of `images.bin`."""
    loaded = []
    assert _traced_peak(lambda: loaded.append(Dataset.load(source.directory))) \
        < 0.01 * source.pixels.nbytes
    assert not loaded[0].pixels.flags.writeable
    with pytest.raises(ValueError):
        loaded[0].pixels[0, 0, 0, 0] = 0.5


def test_content_hash_reads_one_class_block_at_a_time(source):
    peak = _traced_peak(lambda: source.content_hash)
    assert peak <= 1.25 * _class_block_bytes(source)


def test_regenerating_a_mapped_directory_leaves_the_live_dataset_alone(tmp_path):
    """A new `images.bin` replaces the file a live dataset maps: the old
    object keeps its pixels and hash, a fresh load sees the new data."""
    def manifest(seed):
        return build_family_manifest("regen", ("crimson", "azure", "jade"), seed=seed,
                                     split_counts=(2, 1, 2))
    directory = str(tmp_path / "regen")
    old = generate_dataset(manifest(1), directory)
    pixels, old_hash = old.pixels.copy(), old.content_hash
    new = generate_dataset(manifest(2), directory)
    assert np.array_equal(old.pixels, pixels)
    assert old.content_hash == old_hash
    fresh = Dataset.load(directory)
    assert fresh.content_hash == new.content_hash != old_hash
    assert np.array_equal(fresh.pixels, new.pixels)
    assert not np.array_equal(fresh.pixels, pixels)


def test_pixel_range_and_shape(source):
    for pixels in source.pixels[::37]:
        assert pixels.shape == (32, 32, 3)
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0


def test_noiseless_single_sample_centroid_is_perfect(tmp_path):
    manifest = build_family_manifest("tiny", ("crimson", "azure", "jade"), seed=3,
                                     split_counts=(1, 0, 1), noise=0.0)
    # freeze the per-sample jitter out by matching train/test seeds: with one
    # train sample per class and zero noise the test sample is a fresh draw,
    # so instead check the train pool classifies itself perfectly
    ds = generate_dataset(manifest, str(tmp_path / "tiny"))
    centroids, labels = [], []
    for cls in manifest.classes:
        idx = ds.pool_indices(cls.id, "train")[0]
        centroids.append(ds.pixels[idx].reshape(-1))
        labels.append(cls.id)
    centroids = np.stack(centroids)
    for vec, label in zip(centroids, labels):
        pred = labels[int(np.argmin(((centroids - vec) ** 2).sum(axis=1)))]
        assert pred == label


def test_default_centroid_accuracy_band(source):
    # regression-locked: measured once at suite defaults
    full = nearest_centroid_accuracy(source)
    base = nearest_centroid_accuracy(source, class_ids=source.manifest.split.base)
    assert 1 / 12 < full < 0.90
    assert 1 / 8 < base < 0.90
    assert full == pytest.approx(0.6458, abs=0.02)
    assert base == pytest.approx(0.6979, abs=0.02)


def test_base_novel_disjoint_with_descriptions(source):
    m = source.manifest
    assert not set(m.split.base) & set(m.split.novel)
    for cls in m.classes:
        assert len(cls.descriptions) >= 1


def test_descriptions_longer_than_template(source):
    tok = Tokenizer.from_manifests([source.manifest])
    for cls in source.manifest.classes:
        template_len = len(tok.encode(f"a photo of a {cls.name}"))
        for d in cls.descriptions:
            assert len(tok.encode(d)) > template_len


# -- shifted variants ---------------------------------------------------------


def test_identity_variant_equal_bytes(suite, source):
    ident = suite["fields_a-identity"]
    b1 = open(f"{source.directory}/images.bin", "rb").read()
    b2 = open(f"{ident.directory}/images.bin", "rb").read()
    assert b1 == b2
    assert ident.manifest.class_names == source.manifest.class_names


def test_noise_variant_destroys_labels(suite):
    # measured: sigma=10 noise + clipping leaves centroid accuracy at chance
    noise = suite["fields_a-noise"]
    acc = nearest_centroid_accuracy(noise)
    chance = 1 / 12
    n = 12 * noise.manifest.split.test
    band = 3 * np.sqrt(chance * (1 - chance) / n)
    assert abs(acc - chance) <= band


def test_palette_shift_preserves_class_structure(suite, source):
    # regression-locked: drop < 30 points vs source
    src_acc = nearest_centroid_accuracy(source)
    shifted_acc = nearest_centroid_accuracy(suite["fields_a-palette_shift"])
    assert shifted_acc > src_acc - 0.30


def test_unknown_shift_rejected(tmp_path, source):
    with pytest.raises(DatasetError, match="unknown shift"):
        make_shifted_variant(source, "fog", str(tmp_path / "fog"))


def test_variants_deterministic(tmp_path, source):
    v1 = make_shifted_variant(source, "noise", str(tmp_path / "n1"))
    v2 = make_shifted_variant(source, "noise", str(tmp_path / "n2"))
    assert v1.content_hash == v2.content_hash


# -- few-shot splits ------------------------------------------------------------


def test_fewshot_exact_counts(source):
    split = make_fewshot_split(source, shots=16, seed=0)
    assert len(split.indices) == 16 * 8
    per_label = {}
    for label in split.labels:
        per_label[label] = per_label.get(label, 0) + 1
    assert set(per_label.values()) == {16}


def test_fewshot_gathers_label_major_record_indices(source):
    # the record indices the per-image split objects held, for these arguments
    split = make_fewshot_split(source, shots=3, seed=0)
    assert split.indices.tolist() == [3, 10, 17, 59, 61, 74, 116, 122, 127, 162, 166, 169,
                                      209, 215, 219, 263, 267, 270, 312, 314, 320, 366,
                                      373, 375]
    assert split.labels.tolist() == [label for label in range(8) for _ in range(3)]


def test_fewshot_full_class_size(source):
    split = make_fewshot_split(source, shots=source.manifest.split.train, seed=1)
    for label, cid in enumerate(source.manifest.split.base):
        assert split.indices[split.labels == label].tolist() == source.pool_indices(cid, "train")


def test_fewshot_seeds_differ(source):
    a = make_fewshot_split(source, shots=16, seed=0)
    b = make_fewshot_split(source, shots=16, seed=1)
    assert list(a.indices) != list(b.indices)


def test_fewshot_deterministic(source):
    a = make_fewshot_split(source, shots=16, seed=5)
    b = make_fewshot_split(source, shots=16, seed=5)
    assert list(a.indices) == list(b.indices)


def test_fewshot_never_touches_eval_pools(source):
    split = make_fewshot_split(source, shots=16, seed=0)
    eval_indices = set()
    for cid in range(len(source.manifest.classes)):
        eval_indices.update(source.pool_indices(cid, "val"))
        eval_indices.update(source.pool_indices(cid, "test"))
    assert not eval_indices & {int(i) for i in split.indices}


def test_fewshot_insufficient_samples(source):
    with pytest.raises(DatasetError, match="shots"):
        make_fewshot_split(source, shots=1000, seed=0)


def test_export_ppm(tmp_path, source):
    from coprompt.datasets import export_ppm

    export_ppm(source, str(tmp_path / "ppm"), per_class=1)
    files = sorted((tmp_path / "ppm").glob("*.ppm"))
    assert len(files) == 12
    head = files[0].read_text().splitlines()
    assert head[0] == "P3"
    assert head[1] == "32 32"
