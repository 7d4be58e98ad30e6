"""Procedural synthetic image datasets: generation, on-disk format, splits.

Each dataset is a manifest (classes, attributes, descriptions, split spec,
generator params) plus a single `images.bin` record file, both reproducible
bit-exactly from the manifest seed. Classes are procedural pattern fields
(stripes / checks / blobs / rings in a two-color palette) with per-sample
phase, brightness, and noise jitter so pixel-space centroids are an
intentionally mediocre classifier.
"""

from __future__ import annotations

import os
import shutil
import struct
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import canonical_json, read_json, sha256_hex, write_json

FORMAT_VERSION = 1
MAGIC = b"CPDS"

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
class ClassSpec:
    id: int
    name: str
    attributes: dict
    descriptions: list

    def to_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "attributes": dict(self.attributes),
            "descriptions": list(self.descriptions),
        }

    @staticmethod
    def from_dict(d):
        return ClassSpec(int(d["id"]), d["name"], dict(d["attributes"]), list(d["descriptions"]))


@dataclass
class SplitSpec:
    base: list
    novel: list
    train: int
    val: int
    test: int

    def to_dict(self):
        return {"base": list(self.base), "novel": list(self.novel),
                "train": self.train, "val": self.val, "test": self.test}

    @staticmethod
    def from_dict(d):
        return SplitSpec(list(d["base"]), list(d["novel"]), int(d["train"]), int(d["val"]), int(d["test"]))

    @property
    def per_class(self):
        return self.train + self.val + self.test


@dataclass
class DatasetManifest:
    name: str
    classes: list
    split: SplitSpec
    seed: int
    noise: float
    image_size: int = 32
    channels: int = 3
    shift: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        base, novel = set(self.split.base), set(self.split.novel)
        if base & novel:
            raise DatasetError(f"base/novel class sets overlap: {sorted(base & novel)}")
        for c in self.classes:
            if not c.descriptions:
                raise DatasetError(f"class {c.name!r} has no descriptions")

    def to_dict(self):
        return {
            "name": self.name,
            "classes": [c.to_dict() for c in self.classes],
            "split": self.split.to_dict(),
            "seed": self.seed,
            "noise": self.noise,
            "image_size": self.image_size,
            "channels": self.channels,
            "shift": self.shift,
            "format_version": self.format_version,
        }

    @staticmethod
    def from_dict(d):
        return DatasetManifest(
            name=d["name"],
            classes=[ClassSpec.from_dict(c) for c in d["classes"]],
            split=SplitSpec.from_dict(d["split"]),
            seed=int(d["seed"]),
            noise=float(d["noise"]),
            image_size=int(d["image_size"]),
            channels=int(d["channels"]),
            shift=dict(d.get("shift", {})),
            format_version=int(d.get("format_version", FORMAT_VERSION)),
        )

    @property
    def class_names(self):
        return [c.name for c in self.classes]


@dataclass
class ImageRecord:
    class_id: int
    sample_seed: int
    pixels: np.ndarray  # (H, W, C) float32 in [0, 1]


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


def _write_records(path, records, image_size, channels):
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(records)))
        for rec in records:
            f.write(struct.pack("<IQ", rec.class_id, rec.sample_seed))
            f.write(rec.pixels.astype("<f4").tobytes())


def _read_records(path, image_size, channels):
    """Every record of `images.bin`; a file whose length is not exactly the
    header plus `count` records (short or with trailing bytes) is refused."""
    pixel_count = image_size * image_size * channels
    record_size = 12 + 4 * pixel_count
    records = []
    with open(path, "rb") as f:
        header = f.read(12)
        if header[:4] != MAGIC:
            raise DatasetError(f"bad magic in {path}")
        if len(header) < 12:
            raise DatasetError(f"truncated header in {path}")
        version, count = struct.unpack_from("<II", header, 4)
        if version != FORMAT_VERSION:
            raise DatasetError(f"unsupported dataset format version {version}")
        size = os.fstat(f.fileno()).st_size
        if size != 12 + count * record_size:
            raise DatasetError(f"{path} is {size} bytes, but {count} records "
                               f"take {12 + count * record_size}")
        for _ in range(count):
            class_id, sample_seed = struct.unpack("<IQ", f.read(12))
            pixels = np.frombuffer(f.read(4 * pixel_count), dtype="<f4")
            pixels = pixels.reshape(image_size, image_size, channels).astype(np.float32)
            records.append(ImageRecord(class_id, sample_seed, pixels))
    return records


class Dataset:
    """In-memory view over a generated dataset directory.

    Records are ordered class-major, and within each class: train block,
    then val, then test. Pool accessors slice that fixed layout.
    """

    def __init__(self, manifest: DatasetManifest, records, directory=None):
        self.manifest = manifest
        self.records = records
        self.directory = directory

    @staticmethod
    def load(directory):
        manifest = DatasetManifest.from_dict(read_json(os.path.join(directory, "manifest.json")))
        records = _read_records(os.path.join(directory, "images.bin"),
                                manifest.image_size, manifest.channels)
        return Dataset(manifest, records, directory)

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        write_json(os.path.join(directory, "manifest.json"), self.manifest.to_dict())
        _write_records(os.path.join(directory, "images.bin"), self.records,
                       self.manifest.image_size, self.manifest.channels)
        self.directory = directory
        return self

    @property
    def content_hash(self):
        payload = b"".join(rec.pixels.astype("<f4").tobytes() for rec in self.records)
        return sha256_hex(canonical_json(self.manifest.to_dict()).encode() + payload)

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
        out = []
        for cid in class_ids:
            for idx in self.pool_indices(cid, pool):
                out.append((self.records[idx].pixels, cid))
        return out


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


def generate_dataset(manifest: DatasetManifest, out_dir=None) -> Dataset:
    """Materialize every record of a manifest; bit-identical per manifest."""
    records = []
    for cls in manifest.classes:
        for idx in range(manifest.split.per_class):
            sseed = _sample_seed(manifest.seed, cls.id, idx)
            rng = np.random.default_rng(sseed)
            pixels = render_image(cls, manifest.image_size, manifest.noise, rng)
            records.append(ImageRecord(cls.id, sseed, pixels))
    ds = Dataset(manifest, records)
    if out_dir is not None:
        ds.save(out_dir)
    return ds


# ---------------------------------------------------------------------------
# shifted variants

SHIFTS = ("identity", "palette_shift", "noise", "style_remap")
# std of the `noise` shift's pixel noise; against [0, 1] pixels it leaves
# nothing of the class signal after clipping (centroid accuracy at chance)
NOISE_SIGMA = 10.0


def make_shifted_variant(dataset: Dataset, shift, out_dir=None) -> Dataset:
    """Label-preserving distribution shift over every image of a dataset."""
    if shift not in SHIFTS:
        raise DatasetError(f"unknown shift {shift!r}; expected one of {SHIFTS}")
    src = dataset.manifest
    manifest = DatasetManifest.from_dict(src.to_dict())
    manifest.name = f"{src.name}-{shift}"
    manifest.shift = {"kind": shift, "source": src.name}
    if shift == "noise":
        manifest.shift["sigma"] = NOISE_SIGMA

    if shift == "identity":
        records = [ImageRecord(r.class_id, r.sample_seed, r.pixels.copy()) for r in dataset.records]
        ds = Dataset(manifest, records)
        if out_dir is not None:
            ds.save(out_dir)
            # images.bin must be byte-identical to the source
            if dataset.directory is not None:
                shutil.copyfile(os.path.join(dataset.directory, "images.bin"),
                                os.path.join(out_dir, "images.bin"))
        return ds

    records = []
    for idx, rec in enumerate(dataset.records):
        img = rec.pixels.astype(np.float64)
        if shift == "palette_shift":
            img = img * np.asarray([1.18, 0.82, 1.05]) + np.asarray([0.02, 0.05, -0.02])
        elif shift == "noise":
            rng = np.random.default_rng(np.random.SeedSequence([src.seed, 9001, idx]))
            img = img + rng.normal(0.0, NOISE_SIGMA, img.shape)
        elif shift == "style_remap":
            img = 0.82 * img + 0.18 * img[..., [1, 2, 0]]  # mild channel blend
            img = np.clip(img, 0.0, 1.0) ** 0.65
        records.append(ImageRecord(rec.class_id, rec.sample_seed,
                                   np.clip(img, 0.0, 1.0).astype(np.float32)))
    ds = Dataset(manifest, records)
    if out_dir is not None:
        ds.save(out_dir)
    return ds


# ---------------------------------------------------------------------------
# splits


@dataclass
class FewShotItem:
    pixels: np.ndarray
    label: int       # index into base_class_ids ordering
    class_id: int
    record_index: int


@dataclass
class FewShotSplit:
    dataset: Dataset
    base_class_ids: list
    items: list
    shots: int
    seed: int

    @property
    def base_class_names(self):
        return [self.dataset.manifest.classes[cid].name for cid in self.base_class_ids]


def make_fewshot_split(dataset: Dataset, shots, seed) -> FewShotSplit:
    """Exactly `shots` train images per base class, sampled without replacement."""
    split = dataset.manifest.split
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4242]))
    items = []
    for label, cid in enumerate(split.base):
        pool = dataset.pool_indices(cid, "train")
        if len(pool) < shots:
            raise DatasetError(
                f"class {cid} has only {len(pool)} train images, need {shots} shots")
        chosen = rng.choice(len(pool), size=shots, replace=False)
        for j in sorted(int(i) for i in chosen):
            idx = pool[j]
            items.append(FewShotItem(dataset.records[idx].pixels, label, cid, idx))
    return FewShotSplit(dataset, list(split.base), items, shots, seed)


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
VARIANT_SHIFTS = ("identity", "palette_shift", "noise", "style_remap")


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
# helpers used by tests and harnesses


def nearest_centroid_accuracy(dataset: Dataset, class_ids=None):
    """Pixel-space nearest-centroid accuracy: train centroids, test queries."""
    if class_ids is None:
        class_ids = [c.id for c in dataset.manifest.classes]
    centroids = []
    for cid in class_ids:
        vecs = [dataset.records[i].pixels.reshape(-1) for i in dataset.pool_indices(cid, "train")]
        centroids.append(np.mean(vecs, axis=0))
    centroids = np.stack(centroids)
    correct = total = 0
    for pos, cid in enumerate(class_ids):
        for i in dataset.pool_indices(cid, "test"):
            v = dataset.records[i].pixels.reshape(-1)
            pred = int(np.argmin(((centroids - v) ** 2).sum(axis=1)))
            correct += pred == pos
            total += 1
    return correct / total


def export_ppm(dataset: Dataset, out_dir, per_class=1):
    """Dump the first images of each class as plain (P3) PPM for eyeballing."""
    os.makedirs(out_dir, exist_ok=True)
    for cls in dataset.manifest.classes:
        for j, idx in enumerate(dataset.pool_indices(cls.id, "train")[:per_class]):
            img = (dataset.records[idx].pixels * 255.0).astype(np.uint8)
            h, w, _ = img.shape
            lines = [f"P3\n{w} {h}\n255\n"]
            for row in img:
                lines.append(" ".join(str(v) for px in row for v in px) + "\n")
            with open(os.path.join(out_dir, f"{cls.name}_{j}.ppm"), "w") as f:
                f.writelines(lines)
