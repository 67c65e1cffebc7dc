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

from .errors import ParameterError, require_integer

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


def path_normals(
    seed: int, n_paths: int, draws_per_path: int, first_row: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Standard normal draws of shape (n_paths, draws_per_path): rows
    ``first_row`` .. ``first_row + n_paths - 1`` of the stream, written into
    ``out`` when it is given.

    Row p is a pure function of (seed, p, draws_per_path): each path owns a
    contiguous block of the Philox counter, so extending n_paths appends rows
    without disturbing existing ones. Philox makes four draws per counter
    step, so a block of rows may start where that block's first draw,
    ``first_row * draws_per_path``, is a multiple of four (every even row when
    draws_per_path is even): the generator's counter is advanced to it, and
    the rows equal those of one draw from row 0. Blocks drawn this way may
    be filled on separate threads. ParameterError for any other first row.
    """
    require_integer("first_row", first_row, minimum=0)
    if first_row * draws_per_path % 4:
        raise ParameterError(
            f"first_row * draws_per_path must be a multiple of 4, got {first_row} * {draws_per_path}")
    gen = generator(seed)
    gen.bit_generator.advance(first_row * draws_per_path // 4)
    u = gen.random((n_paths, draws_per_path), out=out)
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)
