"""Lightweight sparse vectors for the synonym tool's context model.

The section 5.1 tool builds TF/IDF prefix/suffix vectors per regex match,
normalizes them, averages them per candidate synonym, and compares them with
cosine similarity. Those vectors are tiny and extremely sparse, so a
dict-backed vector is simpler and faster here than CSR matrices (which the
learning substrate, ``repro.learning.sparse``, uses for the bulk classifier
workloads).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping


class SparseVector:
    """An immutable-ish sparse vector keyed by string dimensions."""

    __slots__ = ("_data",)

    def __init__(self, data: Mapping[str, float] = ()):
        self._data: Dict[str, float] = {k: float(v) for k, v in dict(data).items() if v}

    def __getitem__(self, key: str) -> float:
        return self._data.get(key, 0.0)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparseVector) and self._data == other._data

    def __repr__(self) -> str:
        preview = dict(sorted(self._data.items())[:4])
        return f"SparseVector({preview}{'...' if len(self._data) > 4 else ''})"

    def items(self):
        return self._data.items()

    def norm(self) -> float:
        # Scaled two-norm: squaring components near 1e-162 underflows to
        # subnormals and the naive sqrt(sum(v*v)) loses most of its
        # precision, so normalized() would not be unit length. Factoring
        # out the largest magnitude keeps every square near 1.0.
        if not self._data:
            return 0.0
        scale = max(abs(v) for v in self._data.values())
        if scale == 0.0 or math.isinf(scale):
            return scale
        return scale * math.sqrt(sum((v / scale) ** 2 for v in self._data.values()))

    def normalized(self) -> "SparseVector":
        """Unit-length copy; the zero vector normalizes to itself."""
        # Rescale by the largest magnitude before dividing by the norm:
        # at subnormal scale both the norm and the division by it round
        # so coarsely that the quotient can be off by tens of percent.
        # The pre-scaled copy lives in [-1, 1] where both are accurate.
        if not self._data:
            return SparseVector()
        scale = max(abs(v) for v in self._data.values())
        if scale == 0.0:
            return SparseVector()
        scaled = {k: v / scale for k, v in self._data.items()}
        length = math.sqrt(sum(v * v for v in scaled.values()))
        if length == 0.0:
            return SparseVector()
        return SparseVector({k: v / length for k, v in scaled.items()})

    def dot(self, other: "SparseVector") -> float:
        if len(other) < len(self):
            return other.dot(self)
        return sum(v * other[k] for k, v in self._data.items())

    def scale(self, factor: float) -> "SparseVector":
        return SparseVector({k: v * factor for k, v in self._data.items()})

    def add(self, other: "SparseVector") -> "SparseVector":
        merged = dict(self._data)
        for key, value in other.items():
            merged[key] = merged.get(key, 0.0) + value
        return SparseVector(merged)

    def subtract(self, other: "SparseVector") -> "SparseVector":
        return self.add(other.scale(-1.0))


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine of the angle between two sparse vectors (0 for zero vectors)."""
    denom = a.norm() * b.norm()
    if denom == 0:
        return 0.0
    return a.dot(b) / denom


def mean_vector(vectors: Iterable[SparseVector]) -> SparseVector:
    """Component-wise mean; the zero vector for an empty collection."""
    total = SparseVector()
    count = 0
    for vector in vectors:
        total = total.add(vector)
        count += 1
    if count == 0:
        return SparseVector()
    return total.scale(1.0 / count)
