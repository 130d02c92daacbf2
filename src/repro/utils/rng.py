"""Random-number-generator plumbing.

Every stochastic component in the library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an ``int`` (deterministic), or an existing
:class:`numpy.random.Generator` (shared stream).  :func:`as_rng` normalizes
all three into a ``Generator`` so the rest of the code never has to care.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError

SeedLike = "int | None | np.random.Generator | np.random.SeedSequence"


def as_rng(seed=None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a reproducible stream, an
        existing ``Generator`` (returned unchanged), or a ``SeedSequence``.

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list:
    """Create *n* statistically independent generators from one seed.

    Useful when several components (e.g. the generator and discriminator of
    a GAN, or parallel trace synthesizers) each need their own stream but
    the whole experiment must be reproducible from a single integer.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of rngs: {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the parent stream.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def fresh_entropy() -> int:
    """A 128-bit integer drawn from OS entropy (for unseeded pipelines)."""
    return int(np.random.SeedSequence().entropy)


def as_root_entropy(root) -> int:
    """Validate a seed root for the derived-stream contract.

    ``None`` draws fresh entropy; an integer is used as is.  A shared
    ``Generator`` (or anything else) is rejected: derived streams must
    be pure functions of an integer root, never consumed in sequence.
    """
    if root is None:
        return fresh_entropy()
    if isinstance(root, (int, np.integer)):
        return int(root)
    raise ConfigurationError(
        f"seed root must be an int or None, got {type(root).__name__}; "
        "derived RNG streams cannot consume a shared Generator"
    )


def stable_entropy(*tokens) -> int:
    """Hash *tokens* (stringified) into a stable 128-bit integer.

    Unlike :func:`spawn_rngs` on a shared ``Generator``, the result does
    not depend on call ordering — only on the token values — so it can
    key per-work-item RNG streams that must match between serial and
    parallel execution schedules.
    """
    material = "\x1f".join(str(t) for t in tokens).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "little")


def derive_rngs(root_entropy: int, tokens, n: int) -> list:
    """Derive *n* generators from ``(root_entropy, tokens)`` only.

    The derivation is a pure function of its arguments: any worker, in
    any process, at any time, gets bitwise-identical streams for the
    same ``(root, tokens)`` pair.  This is the seed fan-out used by the
    parallel pair-training runtime (one token set per flow pair).
    """
    if n < 0:
        raise ValueError(f"cannot derive a negative number of rngs: {n}")
    seq = np.random.SeedSequence([int(root_entropy), stable_entropy(*tokens)])
    return [np.random.default_rng(child) for child in seq.spawn(n)]
