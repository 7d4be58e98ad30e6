"""Procedural synthetic image datasets: generation, on-disk format, splits.

Each dataset is a manifest (classes, attributes, descriptions, split spec,
generator params) plus a single `images.bin` pixel file, both reproducible
bit-exactly from the manifest seed. Classes are procedural pattern fields
(stripes / checks / blobs / rings in a two-color palette) with per-sample
phase, brightness, and noise jitter so pixel-space centroids are an
intentionally mediocre classifier.

A dataset is a read-only mapping of its own `images.bin`: a header, then
every image as one class-major (N, H, W, C) float32 `pixels` array. An
image's class is fixed by its row (the manifest's split sizes each class
block), and every consumer (few-shot split, pretrain split, pools) gathers
rows by index, so only the pages it reads come into memory.
Writing, hashing and shifting go one class block at a time; a dataset is
written to a temporary file that replaces `images.bin` whole, so a live
dataset never sees its file change.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import (CheckpointError, Record, canonical_json, read_json, require_file,
                          write_json)

FORMAT_VERSION = 1  # the manifest's
IMAGES_VERSION = 2  # `images.bin`'s: the header, then only the pixels
MAGIC = b"CPDS"
_HEADER = 12  # magic, then version and image count as u32

PALETTES = {
    "crimson": ((0.82, 0.12, 0.18), (0.25, 0.02, 0.06)),
    "azure": ((0.15, 0.45, 0.88), (0.02, 0.10, 0.28)),
    "jade": ((0.10, 0.72, 0.45), (0.02, 0.22, 0.12)),
    "amber": ((0.95, 0.68, 0.12), (0.35, 0.22, 0.02)),
    "violet": ((0.55, 0.25, 0.85), (0.15, 0.05, 0.30)),
    "coral": ((0.95, 0.45, 0.38), (0.35, 0.10, 0.08)),
    "slate": ((0.45, 0.52, 0.60), (0.12, 0.15, 0.20)),
    "lime": ((0.62, 0.88, 0.18), (0.20, 0.30, 0.04)),
    "rose": ((0.92, 0.50, 0.65), (0.32, 0.10, 0.18)),
    "gold": ((0.92, 0.78, 0.25), (0.30, 0.24, 0.04)),
    "teal": ((0.10, 0.65, 0.68), (0.02, 0.20, 0.22)),
    "plum": ((0.58, 0.20, 0.48), (0.18, 0.04, 0.14)),
}

PATTERNS = ("stripes", "checks", "blobs", "rings")

# orientation word used in descriptions; stripes rotate through three
_PATTERN_ORIENTATION = {"checks": "tiled", "blobs": "scattered", "rings": "nested"}
_STRIPE_ORIENTATIONS = ("diagonal", "vertical", "horizontal")

DESCRIPTION_TEMPLATES = (
    "a photo of a {name}, a {orientation} {pattern} pattern in {palette} tones",
    "a {palette} field of {orientation} {pattern} on a soft background",
    "an image of {orientation} {pattern} drawn in {palette} shades",
)

TEMPLATE_PROMPT = "a photo of a {name}"


class DatasetError(ValueError):
    """Invalid manifest, shift id, or split request."""


@dataclass
class ClassSpec(Record):
    what = "dataset class"
    id: int
    name: str
    attributes: dict
    descriptions: list[str]


@dataclass
class SplitSpec(Record):
    what = "dataset split"
    base: list[int]
    novel: list[int]
    train: int
    val: int
    test: int

    def __post_init__(self):
        for key in ("train", "val", "test"):
            if getattr(self, key) < 0:
                self.refuse(key, f"must be >= 0, got {getattr(self, key)}", DatasetError)
        if self.per_class < 1:
            raise DatasetError(f"{self.what}: 'train', 'val' and 'test' hold no image per class")

    @property
    def per_class(self):
        return self.train + self.val + self.test


@dataclass
class DatasetManifest(Record):
    what = "dataset manifest"
    name: str
    classes: list[ClassSpec]
    split: SplitSpec
    seed: int
    noise: float
    image_size: int = 32
    channels: int = 3
    shift: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        """Every block and pool index assumes a class's id is its position,
        and that the split names only those ids."""
        base, novel = set(self.split.base), set(self.split.novel)
        if base & novel:
            raise DatasetError(f"base/novel class sets overlap: {sorted(base & novel)}")
        outside = sorted((base | novel) - set(range(len(self.classes))))
        if outside:
            raise DatasetError(f"{self.what}: split class ids {outside} are not among the "
                               f"{len(self.classes)} classes")
        for pos, c in enumerate(self.classes):
            if c.id != pos:
                raise DatasetError(f"{self.what}: class {c.name!r} at position {pos} has id {c.id}")
            if not c.descriptions:
                raise DatasetError(f"class {c.name!r} has no descriptions")
        if self.noise < 0:
            raise DatasetError(f"{self.what}: 'noise' must be >= 0, got {self.noise}")
        if self.format_version != FORMAT_VERSION:
            raise DatasetError(f"{self.what}: 'format_version' is {self.format_version}, not "
                               f"{FORMAT_VERSION}; re-run gen-data to rewrite it")

    @property
    def class_names(self):
        return [c.name for c in self.classes]


# ---------------------------------------------------------------------------
# rendering


def _coords(size):
    axis = (np.arange(size) + 0.5) / size
    return np.meshgrid(axis, axis, indexing="ij")  # (yy, xx)


def render_image(cls: ClassSpec, size, noise, rng):
    """Render one sample of a class; all randomness comes from `rng`."""
    yy, xx = _coords(size)
    attrs = cls.attributes
    pattern = attrs["pattern"]
    freq = float(attrs["frequency"])

    if pattern == "stripes":
        angle = {"horizontal": 90.0, "vertical": 0.0, "diagonal": 45.0}[attrs["orientation"]]
        theta = np.deg2rad(angle)
        t = np.cos(theta) * xx + np.sin(theta) * yy
        phase = rng.uniform(0.0, 2.0 * np.pi)
        v = 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * t + phase)
    elif pattern == "checks":
        ox, oy = rng.uniform(0.0, 1.0, 2)
        v = ((np.floor(freq * xx + ox) + np.floor(freq * yy + oy)) % 2.0)
    elif pattern == "blobs":
        v = np.zeros_like(xx)
        for _ in range(4):
            cy, cx = rng.uniform(0.1, 0.9, 2)
            sigma = rng.uniform(0.08, 0.16)
            v += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
        v = v / v.max()
    elif pattern == "rings":
        cy, cx = rng.uniform(0.3, 0.7, 2)
        r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        v = 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * r + phase)
    else:
        raise DatasetError(f"unknown pattern family {pattern!r}")

    fg, bg = PALETTES[attrs["palette"]]
    img = v[..., None] * np.asarray(fg) + (1.0 - v[..., None]) * np.asarray(bg)
    img *= rng.uniform(0.88, 1.12)  # per-sample brightness jitter
    if noise > 0.0:
        img += rng.normal(0.0, noise, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _sample_seed(manifest_seed, class_id, index):
    ss = np.random.SeedSequence([manifest_seed, class_id, index])
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# on-disk format


def _image_shape(manifest):
    return (manifest.image_size, manifest.image_size, manifest.channels)


def _map_rows(fd, path, manifest):
    """Map every image of the open `images.bin` read-only, as (N, H, W, C)
    float32. A file whose header count is not the manifest's classes times
    its split, or whose length is not exactly the header plus `count`
    images (short or with trailing bytes), is refused."""
    shape = _image_shape(manifest)
    image_bytes = 4 * int(np.prod(shape))
    header = os.pread(fd, _HEADER, 0)
    if header[:4] != MAGIC:
        raise DatasetError(f"bad magic in {path}")
    if len(header) < _HEADER:
        raise DatasetError(f"truncated header in {path}")
    version, count = (int(v) for v in np.frombuffer(header, "<u4", 2, offset=4))
    if version != IMAGES_VERSION:
        raise DatasetError(f"{path} is dataset format version {version}, not "
                           f"{IMAGES_VERSION}; re-run gen-data to rewrite it")
    expected = len(manifest.classes) * manifest.split.per_class
    if count != expected:
        raise DatasetError(f"{path} holds {count} records, but the manifest's classes "
                           f"and split make {expected}")
    size = os.fstat(fd).st_size
    if size != _HEADER + count * image_bytes:
        raise DatasetError(f"{path} is {size} bytes, but {count} images "
                           f"take {_HEADER + count * image_bytes}")
    return np.frombuffer(mmap.mmap(fd, size, access=mmap.ACCESS_READ), "<f4",
                         offset=_HEADER).reshape(count, *shape)


class Dataset:
    """A generated dataset directory, mapped read-only.

    `pixels` is the (N, H, W, C) float32 image array of `images.bin`,
    mapped from the file. Rows are ordered class-major, and within each
    class: train block, then val, then test. Pool accessors slice that fixed
    layout. A dataset holds its file open while it lives, so a directory
    regenerated under it (a new file put in place) changes neither its
    pixels nor its hash.
    """

    def __init__(self, manifest: DatasetManifest, directory):
        path = os.path.join(directory, "images.bin")
        require_file(path, DatasetError)
        self._fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)
        self.manifest = manifest
        self.directory = directory
        self.pixels = _map_rows(self._fd, path, manifest)

    @staticmethod
    def load(directory):
        """The dataset under `directory`; any refusal is a `DatasetError`."""
        path = os.path.join(directory, "manifest.json")
        try:
            manifest = DatasetManifest.from_dict(read_json(path))
        except CheckpointError as e:  # missing, or not JSON: the message names the path
            raise DatasetError(str(e)) from None
        except ValueError as e:
            raise DatasetError(f"{path}: {e}") from None
        return Dataset(manifest, directory)

    def _class_blocks(self):
        """Each class's (per_class, H, W, C) images in turn, read from the
        open file (not the mapping) into one writable array that every step
        reuses."""
        block = np.empty((self.manifest.split.per_class, *self.pixels.shape[1:]), "<f4")
        for cid in range(len(self.manifest.classes)):
            if os.preadv(self._fd, [block], _HEADER + cid * block.nbytes) != block.nbytes:
                raise DatasetError(f"short read of class {cid} in {self.directory}")
            yield block

    @property
    def content_hash(self):
        """sha256 of the canonical manifest and every pixel, one class block at a time."""
        h = hashlib.sha256(canonical_json(self.manifest.to_dict()).encode())
        for block in self._class_blocks():
            h.update(block)
        return h.hexdigest()

    def _block(self, class_id):
        return class_id * self.manifest.split.per_class

    def pool_indices(self, class_id, pool):
        s = self.manifest.split
        start = self._block(class_id)
        offsets = {"train": (0, s.train), "val": (s.train, s.train + s.val),
                   "test": (s.train + s.val, s.per_class)}
        if pool not in offsets:
            raise DatasetError(f"unknown pool {pool!r}")
        lo, hi = offsets[pool]
        return list(range(start + lo, start + hi))

    def pool(self, class_ids, pool):
        """(pixels, class_id) pairs for the given classes and pool."""
        return [(self.pixels[idx], cid) for cid in class_ids
                for idx in self.pool_indices(cid, pool)]


def _write_dataset(directory, manifest, blocks):
    """Write the header and then each class block of images to a temporary
    file that replaces `images.bin`, then the manifest; returns the dataset
    mapped from `directory`."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "images.bin")
    count = len(manifest.classes) * manifest.split.per_class
    with open(path + ".tmp", "wb") as f:
        f.write(MAGIC + np.asarray([IMAGES_VERSION, count], "<u4").tobytes())
        for block in blocks:
            block.tofile(f)
    os.replace(path + ".tmp", path)
    write_json(os.path.join(directory, "manifest.json"), manifest.to_dict())
    return Dataset(manifest, directory)


# ---------------------------------------------------------------------------
# generation


def build_family_manifest(name, palettes, seed, split_counts, noise=0.06,
                          base_count=8):
    """12-class family: 3 palettes x 4 patterns, every pattern in base and novel."""
    # interleave palettes and patterns so base and novel both cover every
    # pattern; with coprime counts the first len(palettes)*len(PATTERNS)
    # pairs are already distinct
    seen, ordered = set(), []
    for i in range(len(palettes) * len(PATTERNS)):
        combo = (palettes[i % len(palettes)], PATTERNS[i % len(PATTERNS)])
        if combo not in seen:
            seen.add(combo)
            ordered.append(combo)
    for palette in palettes:
        for pattern in PATTERNS:
            if (palette, pattern) not in seen:
                seen.add((palette, pattern))
                ordered.append((palette, pattern))

    classes = []
    stripe_i = 0
    for cid, (palette, pattern) in enumerate(ordered):
        if pattern == "stripes":
            orientation = _STRIPE_ORIENTATIONS[stripe_i % len(_STRIPE_ORIENTATIONS)]
            stripe_i += 1
        else:
            orientation = _PATTERN_ORIENTATION[pattern]
        frequency = (3.0, 5.0)[cid % 2] if pattern != "rings" else (4.0, 7.0)[cid % 2]
        cls_name = f"{palette}{pattern}"
        attrs = {"pattern": pattern, "orientation": orientation,
                 "palette": palette, "frequency": frequency}
        descriptions = [t.format(name=cls_name, **attrs) for t in DESCRIPTION_TEMPLATES]
        classes.append(ClassSpec(cid, cls_name, attrs, descriptions))

    train, val, test = split_counts
    split = SplitSpec(base=list(range(base_count)),
                      novel=list(range(base_count, len(classes))),
                      train=train, val=val, test=test)
    return DatasetManifest(name=name, classes=classes, split=split, seed=seed, noise=noise)


def generate_dataset(manifest: DatasetManifest, out_dir) -> Dataset:
    """Write every image of a manifest under `out_dir`, one class block at a
    time; bit-identical per manifest. Returns the dataset mapped there."""
    return _write_dataset(out_dir, manifest, _rendered_blocks(manifest))


def _rendered_blocks(manifest):
    """Each class's images in turn, in one array that every step refills."""
    block = np.zeros((manifest.split.per_class, *_image_shape(manifest)), "<f4")
    for cls in manifest.classes:
        for idx in range(len(block)):
            rng = np.random.default_rng(_sample_seed(manifest.seed, cls.id, idx))
            block[idx] = render_image(cls, manifest.image_size, manifest.noise, rng)
        yield block


# ---------------------------------------------------------------------------
# shifted variants

VARIANT_SHIFTS = ("identity", "palette_shift", "noise", "style_remap")
# std of the `noise` shift's pixel noise; against [0, 1] pixels it leaves
# nothing of the class signal after clipping (centroid accuracy at chance)
NOISE_SIGMA = 10.0


def make_shifted_variant(dataset: Dataset, shift, out_dir) -> Dataset:
    """Label-preserving distribution shift over every image of a dataset,
    written under `out_dir` one class block at a time; returns the dataset
    mapped there."""
    if shift not in VARIANT_SHIFTS:
        raise DatasetError(f"unknown shift {shift!r}; expected one of {VARIANT_SHIFTS}")
    src = dataset.manifest
    manifest = DatasetManifest.from_dict(src.to_dict())
    manifest.name = f"{src.name}-{shift}"
    manifest.shift = {"kind": shift, "source": src.name}
    if shift == "noise":
        manifest.shift["sigma"] = NOISE_SIGMA
    return _write_dataset(out_dir, manifest, _shifted_blocks(dataset, shift))


def _shifted_blocks(dataset, shift):
    seed, per_class = dataset.manifest.seed, dataset.manifest.split.per_class
    for cid, block in enumerate(dataset._class_blocks()):
        for j in range(len(block)):
            img = block[j].astype(np.float64)
            if shift == "palette_shift":
                img = img * np.asarray([1.18, 0.82, 1.05]) + np.asarray([0.02, 0.05, -0.02])
            elif shift == "noise":
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, 9001, cid * per_class + j]))
                img = img + rng.normal(0.0, NOISE_SIGMA, img.shape)
            elif shift == "style_remap":
                img = 0.82 * img + 0.18 * img[..., [1, 2, 0]]  # mild channel blend
                img = np.clip(img, 0.0, 1.0) ** 0.65
            block[j] = np.clip(img, 0.0, 1.0)  # identity: every pixel is already in [0, 1]
        yield block


# ---------------------------------------------------------------------------
# splits


@dataclass
class FewShotSplit:
    dataset: Dataset
    base_class_ids: list
    indices: np.ndarray  # dataset rows, label-major
    labels: np.ndarray   # index into base_class_ids of each row
    shots: int
    seed: int

    @property
    def base_class_names(self):
        return [self.dataset.manifest.classes[cid].name for cid in self.base_class_ids]


def make_fewshot_split(dataset: Dataset, shots, seed) -> FewShotSplit:
    """Exactly `shots` train images per base class, sampled without replacement."""
    split = dataset.manifest.split
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4242]))
    indices, labels = [], []
    for label, cid in enumerate(split.base):
        pool = dataset.pool_indices(cid, "train")
        if len(pool) < shots:
            raise DatasetError(
                f"class {cid} has only {len(pool)} train images, need {shots} shots")
        chosen = rng.choice(len(pool), size=shots, replace=False)
        indices += [pool[j] for j in sorted(int(i) for i in chosen)]
        labels += [label] * shots
    return FewShotSplit(dataset, list(split.base), np.asarray(indices, dtype=np.int64),
                        np.asarray(labels, dtype=np.int64), shots, seed)


# ---------------------------------------------------------------------------
# default suite


SUITE_FAMILIES = {
    "fields_a": ("crimson", "azure", "jade"),
    "fields_b": ("amber", "violet", "coral"),
    "fields_c": ("slate", "lime", "rose"),
    "fields_d": ("gold", "teal", "plum"),
}

SOURCE_FAMILY = "fields_a"
TARGET_FAMILIES = ("fields_b", "fields_c", "fields_d")


def build_default_suite(root, seed=7, source_counts=(24, 4, 24), target_counts=(20, 4, 8),
                        noise=0.03):
    """Generate the full evaluation suite under `root`.

    One source family, three targets with disjoint class vocabularies, and
    the shifted variants of the source. Returns {name: Dataset}.
    """
    suite = {}
    for fam_i, (name, palettes) in enumerate(SUITE_FAMILIES.items()):
        counts = source_counts if name == SOURCE_FAMILY else target_counts
        manifest = build_family_manifest(name, palettes, seed=seed + fam_i,
                                         split_counts=counts, noise=noise)
        suite[name] = generate_dataset(manifest, os.path.join(root, name))
    source = suite[SOURCE_FAMILY]
    for shift in VARIANT_SHIFTS:
        variant = make_shifted_variant(source, shift,
                                       os.path.join(root, f"{SOURCE_FAMILY}-{shift}"))
        suite[variant.manifest.name] = variant
    return suite


# ---------------------------------------------------------------------------
# inspection


def export_ppm(dataset: Dataset, out_dir, per_class=1):
    """Dump the first images of each class as plain (P3) PPM for eyeballing."""
    os.makedirs(out_dir, exist_ok=True)
    for cls in dataset.manifest.classes:
        for j, idx in enumerate(dataset.pool_indices(cls.id, "train")[:per_class]):
            img = (dataset.pixels[idx] * 255.0).astype(np.uint8)
            h, w, _ = img.shape
            lines = [f"P3\n{w} {h}\n255\n"]
            for row in img:
                lines.append(" ".join(str(v) for px in row for v in px) + "\n")
            with open(os.path.join(out_dir, f"{cls.name}_{j}.ppm"), "w") as f:
                f.writelines(lines)
