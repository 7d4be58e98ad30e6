"""Trainable tuning parameters: per-layer text prompts, coupled vision
prompts, and per-branch bottleneck adapters.

These are the only parameters that ever train during fine-tuning; the
encoder weights stay frozen. Vision prompts are never stored: they are
recomputed from the text prompts through per-layer couplers on every
forward, so the two branches cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

ADAPTER_BRANCHES = ("text", "image")
ADAPTER_MODALITIES = ("none", "text", "image", "both")


class PromptSet:
    """Learnable per-layer text prompt vectors plus text-to-vision couplers.

    `m` vectors per layer, injected into the first `depth` encoder layers.
    Couplers are independent per-layer linear maps (width -> width).
    """

    def __init__(self, width, layers, m=2, depth=None, rng=None):
        depth = layers if depth is None else depth
        if not 0 <= depth <= layers:
            raise ValueError(f"prompt depth {depth} out of range for {layers} layers")
        if m < 0:
            raise ValueError(f"prompt count m must be >= 0, got {m}")
        self.width = width
        self.m = m
        self.depth = depth
        rng = rng or np.random.default_rng(0)
        self.text_prompts = [
            Tensor(rng.normal(0.0, 0.02, (m, width)), requires_grad=True)
            for _ in range(depth)
        ]
        self.coupler_w = [
            Tensor(rng.normal(0.0, 0.02, (width, width)), requires_grad=True)
            for _ in range(depth)
        ]
        self.coupler_b = [
            Tensor(np.zeros(width), requires_grad=True) for _ in range(depth)
        ]

    def vision_prompts(self):
        """Recompute v_j = coupler_j(u_j) from the current text prompts."""
        return [ad.matmul(u, w, bias=b) for u, w, b in
                zip(self.text_prompts, self.coupler_w, self.coupler_b)]

    def text_schedule(self):
        """Per-layer text prompts for the text encoder; None when prompting is off."""
        if self.m == 0 or self.depth == 0:
            return None
        return list(self.text_prompts)

    def schedules(self):
        """(text per-layer prompts, vision per-layer prompts) for the encoders."""
        text = self.text_schedule()
        return text, None if text is None else self.vision_prompts()

    def param_items(self):
        out = []
        for j in range(self.depth):
            out.append((f"prompt.u{j}", self.text_prompts[j]))
            out.append((f"prompt.coupler{j}.w", self.coupler_w[j]))
            out.append((f"prompt.coupler{j}.b", self.coupler_b[j]))
        return out


class Adapter:
    """Bottleneck transform over a batch of output embeddings.

    1 to 3 linear layers with ReLU between them, added to the input and
    re-normalized; the last layer starts at zero so the adapter is an exact
    identity at initialization (the residual plus re-normalization keeps
    unit-norm inputs unit-norm).
    """

    def __init__(self, embed_dim, n_layers=2, bottleneck=None, branch="text", rng=None):
        if n_layers not in (1, 2, 3):
            raise ValueError(f"adapter supports 1-3 layers, got {n_layers}")
        if branch not in ADAPTER_BRANCHES:
            raise ValueError(f"adapter branch must be one of {ADAPTER_BRANCHES}")
        bottleneck = bottleneck or max(1, embed_dim // 4)
        self.embed_dim = embed_dim
        self.n_layers = n_layers
        self.branch = branch
        rng = rng or np.random.default_rng(0)

        dims = {1: [embed_dim, embed_dim],
                2: [embed_dim, bottleneck, embed_dim],
                3: [embed_dim, bottleneck, bottleneck, embed_dim]}[n_layers]
        self.ws, self.bs = [], []
        for i in range(len(dims) - 1):
            last = i == len(dims) - 2
            w = np.zeros((dims[i], dims[i + 1])) if last else \
                rng.uniform(-1e-3, 1e-3, (dims[i], dims[i + 1]))
            self.ws.append(Tensor(w, requires_grad=True))
            self.bs.append(Tensor(np.zeros(dims[i + 1]), requires_grad=True))

    def apply(self, e):
        """(B, embed_dim) embeddings in, (B, embed_dim) unit-norm rows out."""
        if e.ndim != 2 or e.shape[1] != self.embed_dim:
            raise ShapeError(
                f"adapter expects a batch of embeddings of dim {self.embed_dim}, got {e.shape}")
        h = e
        for i, (w, b) in enumerate(zip(self.ws, self.bs)):
            h = ad.matmul(h, w, bias=b)
            if i < len(self.ws) - 1:
                h = ad.relu(h)
        return ad.l2_normalize(e + h)

    def param_items(self):
        name = f"adapter.{self.branch}"
        out = []
        for i, (w, b) in enumerate(zip(self.ws, self.bs)):
            out.append((f"{name}.w{i}", w))
            out.append((f"{name}.b{i}", b))
        return out


def apply_adapter(adapter, e):
    """Identity when adapter is None, else the adapter transform."""
    return e if adapter is None else adapter.apply(e)


def make_adapters(embed_dim, modality="both", n_layers=2, rng=None):
    """Adapter pair keyed by branch; entries are None where disabled."""
    if modality not in ADAPTER_MODALITIES:
        raise ValueError(f"unknown adapter modality {modality!r}")
    rng = rng or np.random.default_rng(0)
    text = Adapter(embed_dim, n_layers, branch="text",
                   rng=rng) if modality in ("text", "both") else None
    image = Adapter(embed_dim, n_layers, branch="image",
                    rng=rng) if modality in ("image", "both") else None
    return {"text": text, "image": image}


def trainable_parameters(prompt_set, adapters=None):
    """Every tunable (name, tensor): prompts, couplers, adapters. Never encoder weights."""
    items = list(prompt_set.param_items())
    if adapters:
        for branch in ADAPTER_BRANCHES:
            a = adapters.get(branch)
            if a is not None:
                items.extend(a.param_items())
    return items
