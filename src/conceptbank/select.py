"""Confidence-based training image selection.

Images harvested for a concept by tag matching are noisy. Each image is
scored by a multi-feature kernel density estimate over its concept pool:

    p(c|i) = (1/(M*N)) * sum_m sum_j exp(-||f_m^i - f_m^j||^2 / sigma_m^2)

with sigma_m the mean unsquared L2 distance over distinct member pairs in
channel m. A pool holds f_m as one (images x dim) matrix per channel, as
encode writes them. High-confidence images become positives; negatives
are sampled from other concepts' pools.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .encode import _sq_dists
from .errors import DegenerateSigmaWarning, PreconditionError


@dataclass
class ConceptImagePool:
    """A concept's harvested images: image_ids[i] is row i of every
    features[channel] matrix, {channel: (images x dim)}."""

    concept_id: str
    image_ids: list[str]
    features: dict[str, np.ndarray]
    sigma: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.image_ids:
            raise PreconditionError(f"empty pool for {self.concept_id}")
        self.features = {ch: np.asarray(m, dtype=np.float64) for ch, m in self.features.items()}
        for channel, m in self.features.items():
            if m.ndim != 2 or m.shape[0] != len(self.image_ids):
                raise PreconditionError(
                    f"pool {self.concept_id}: channel {channel} is {m.shape}, "
                    f"not one row for each of {len(self.image_ids)} images"
                )

    @property
    def size(self) -> int:
        return len(self.image_ids)

    @property
    def channels(self) -> list[str]:
        return list(self.features)


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
        f = pool.features[channel]
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
        f = pool.features[channel]
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
    ids = pool.image_ids
    order = sorted(range(pool.size), key=lambda i: (-scores[i], ids[i]))
    positives = [(ids[i], float(scores[i])) for i in order[: min(s, pool.size)]]
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
    union of the other pools, excluding anything in this pool. A pool in
    other_pools with this pool's concept id is skipped."""
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
