"""Deterministic seed derivation for staged pipelines.

Every stage of an experiment (splitting, training, per-point recourse,
shadow models, ...) gets its own child seed derived from the master seed,
a stage name, and an index. Derivation is a stable hash, so results are
independent of execution order and of how points are batched.
"""
from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # numpy imports it lazily; every audit draws from it


def derive_seed(master: int, stage: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from (master, stage, index)."""
    payload = f"{master}:{stage}:{index}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(master: int, stage: str, index: int = 0) -> np.random.Generator:
    """Generator seeded with the derived child seed."""
    return np.random.default_rng(derive_seed(master, stage, index))
