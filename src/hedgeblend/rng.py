"""Deterministic random-stream derivation.

Every stochastic component of the library draws from a Philox counter-based
generator whose 128-bit key is mixed from a root seed plus a tuple of integer
indices (purpose tag, member index, epoch index, ...). The same
(seed, indices) always maps to the same stream, independent of call order
or thread layout.

Path simulation uses uniform draws mapped through the inverse normal CDF.
A uniform double consumes exactly one 64-bit counter word, so a draw of shape
(n_paths, k) assigns each path a fixed, contiguous counter block: row p
depends only on (seed, p, k), never on n_paths.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import require_integer

# Purpose tags mixed into derived seeds. Values are arbitrary but frozen:
# changing them changes every downstream stream.
TAG_INIT = 1
TAG_EPOCH_PATHS = 2
TAG_MEMBER = 3
TAG_SPLIT = 4
TAG_BOOTSTRAP = 5

# Smallest uniform passed to ndtri; keeps the mapped normal finite.
_U_FLOOR = 2.0 ** -53


def derive_seed(root: int, *indices: int) -> int:
    """Mix a root seed and integer indices, each a non-negative integer, into
    an independent 128-bit seed."""
    require_integer("seed", root, minimum=0)
    for index in indices:
        require_integer("seed index", index, minimum=0)
    words = np.random.SeedSequence([int(root), *[int(i) for i in indices]]).generate_state(4)
    out = 0
    for w in words:
        out = (out << 32) | int(w)
    return out


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by ``seed``, a non-negative integer."""
    require_integer("seed", seed, minimum=0)
    return np.random.Generator(np.random.Philox(key=seed))


def path_normals(seed: int, n_paths: int, draws_per_path: int) -> np.ndarray:
    """Standard normal draws of shape (n_paths, draws_per_path).

    Row p is a pure function of (seed, p, draws_per_path): each path owns a
    contiguous block of the Philox counter, so extending n_paths appends rows
    without disturbing existing ones.
    """
    u = generator(seed).random((n_paths, draws_per_path))
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u)
