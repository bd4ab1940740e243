"""Confidence-based training image selection.

Images harvested for a concept by tag matching are noisy. Each image is
scored by a multi-feature kernel density estimate over its concept pool:

    p(c|i) = (1/(M*N)) * sum_m sum_j exp(-||f_m^i - f_m^j||^2 / sigma_m^2)

with sigma_m the mean unsquared L2 distance over distinct member pairs in
channel m. High-confidence images become positives; negatives are sampled
from other concepts' pools.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .encode import FeatureSet, _sq_dists
from .errors import DegenerateSigmaWarning, PreconditionError


@dataclass
class ConceptImagePool:
    concept_id: str
    members: list[tuple[str, FeatureSet]]
    sigma: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise PreconditionError(f"empty pool for {self.concept_id}")
        channels = self.members[0][1].channels
        for image_id, fs in self.members:
            if fs.channels != channels:
                raise PreconditionError(
                    f"pool {self.concept_id}: channel mismatch at {image_id}"
                )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def channels(self) -> list[str]:
        return self.members[0][1].channels

    @property
    def image_ids(self) -> list[str]:
        return [image_id for image_id, _ in self.members]

    def channel_matrix(self, channel: str) -> np.ndarray:
        rows = []
        dim = None
        for image_id, fs in self.members:
            v = np.asarray(fs.vectors[channel], dtype=np.float64).ravel()
            if dim is None:
                dim = v.size
            elif v.size != dim:
                raise PreconditionError(
                    f"pool {self.concept_id}: channel {channel} dim mismatch "
                    f"at {image_id} ({v.size} != {dim})"
                )
            rows.append(v)
        return np.stack(rows)


@dataclass
class SelectionResult:
    concept_id: str
    positives: list[tuple[str, float]]  # (image_id, confidence), score desc
    negatives: list[tuple[str, str]]  # (image_id, source concept id)
    seed: int

    def to_dict(self) -> dict:
        return {
            "concept_id": self.concept_id,
            "positives": [[i, s] for i, s in self.positives],
            "negatives": [[i, c] for i, c in self.negatives],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SelectionResult":
        return cls(
            concept_id=d["concept_id"],
            positives=[(i, float(s)) for i, s in d["positives"]],
            negatives=[(i, c) for i, c in d["negatives"]],
            seed=int(d["seed"]),
        )


def compute_sigma(pool: ConceptImagePool) -> dict[str, float]:
    """Per-channel mean pairwise L2 distance (unordered pairs, no
    self-pairs). A channel with no pairs or all-zero distances has no
    usable bandwidth; it falls back to 1.0 with a warning, which turns
    every kernel term for that channel into exp(-d^2)."""
    sigma: dict[str, float] = {}
    for channel in pool.channels:
        f = pool.channel_matrix(channel)
        n = f.shape[0]
        if n < 2:
            warnings.warn(
                f"pool {pool.concept_id} channel {channel}: single member, "
                "sigma undefined, using 1.0",
                DegenerateSigmaWarning,
                stacklevel=2,
            )
            sigma[channel] = 1.0
            continue
        d = np.sqrt(_sq_dists(f, f))
        iu = np.triu_indices(n, k=1)
        mean = float(d[iu].mean())
        if mean <= 0.0:
            warnings.warn(
                f"pool {pool.concept_id} channel {channel}: all pairwise "
                "distances zero, sigma undefined, using 1.0",
                DegenerateSigmaWarning,
                stacklevel=2,
            )
            mean = 1.0
        sigma[channel] = mean
    return sigma


def kde_confidences(pool: ConceptImagePool) -> np.ndarray:
    """Confidence p(c|i) for every pool member at once; values in (0, 1].
    The sum over j includes the member itself (the self-term is 1)."""
    if not pool.sigma:
        pool.sigma = compute_sigma(pool)
    n = pool.size
    m = len(pool.channels)
    acc = np.zeros(n, dtype=np.float64)
    for channel in pool.channels:
        f = pool.channel_matrix(channel)
        s = pool.sigma[channel]
        acc += np.exp(-_sq_dists(f, f) / (s * s)).sum(axis=1)
    return acc / (m * n)


def select_training_set(
    pool: ConceptImagePool,
    other_pools: list[ConceptImagePool],
    s: int = 100,
    t: int = 1000,
    seed: int = 0,
    allow_fewer_negatives: bool = False,
) -> SelectionResult:
    """Pick the s most confident members as positives and sample t
    negatives (uniform, without replacement, seeded) from the union of
    the other pools, never reusing an image present in this pool.

    An image living in several other pools counts once; its recorded
    source is the lexicographically first owning concept.
    """
    scores = kde_confidences(pool)
    order = sorted(
        range(pool.size), key=lambda i: (-scores[i], pool.members[i][0])
    )
    positives = [
        (pool.members[i][0], float(scores[i])) for i in order[: min(s, pool.size)]
    ]
    negatives = sample_negatives(
        pool, other_pools, t, seed, allow_fewer=allow_fewer_negatives
    )
    return SelectionResult(
        concept_id=pool.concept_id, positives=positives, negatives=negatives, seed=seed
    )


def sample_negatives(
    pool: ConceptImagePool,
    other_pools: list[ConceptImagePool],
    t: int,
    seed: int,
    allow_fewer: bool = False,
) -> list[tuple[str, str]]:
    """Seeded uniform sample (without replacement) of t images from the
    union of the other pools, excluding anything in this pool."""
    own = set(pool.image_ids)
    source: dict[str, str] = {}
    for other in other_pools:
        if other.concept_id == pool.concept_id:
            continue
        for image_id in other.image_ids:
            if image_id in own:
                continue
            prev = source.get(image_id)
            if prev is None or other.concept_id < prev:
                source[image_id] = other.concept_id
    candidates = sorted(source)
    t_eff = t
    if len(candidates) < t:
        if not allow_fewer:
            raise PreconditionError(
                f"pool {pool.concept_id}: only {len(candidates)} negative "
                f"candidates available, {t} requested"
            )
        t_eff = len(candidates)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(candidates), size=t_eff, replace=False)
    return sorted((candidates[int(j)], source[candidates[int(j)]]) for j in picked)
