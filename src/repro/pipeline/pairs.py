"""Typed flow-pair keys and the dataset registry.

Every pipeline mapping is keyed by a :class:`FlowPairKey`: a frozen,
hashable value object with ``key.first`` / ``key.second`` /
``key.reversed()`` and ``"A|B"`` string parsing.  :func:`as_pair_key`
is the one normalizer at the API boundary; it accepts a key or an
``"A|B"`` string and rejects everything else, plain tuples included.

:class:`PairDataRegistry` is the typed ``FlowPairKey ->
FlowPairDataset`` mapping passed to
:meth:`~repro.pipeline.gansec.GANSec.generate_graph` /
:meth:`~repro.pipeline.gansec.GANSec.train_models`; a plain dict with
the same keys is accepted through :meth:`PairDataRegistry.coerce`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, DataError

#: Separator used by ``str(key)`` / ``FlowPairKey.parse``.
PAIR_SEPARATOR = "|"


@dataclass(frozen=True)
class FlowPairKey:
    """Identity of one ordered flow pair ``(F_first | F_second)``.

    Round-trips through ``str()`` / :meth:`parse`.
    """

    first: str
    second: str

    def __post_init__(self):
        for label, value in (("first", self.first), ("second", self.second)):
            if not isinstance(value, str) or not value:
                raise ConfigurationError(
                    f"FlowPairKey.{label} must be a non-empty string, got {value!r}"
                )

    @classmethod
    def parse(cls, text: str) -> "FlowPairKey":
        """Parse ``"F18|F1"`` (whitespace-tolerant) into a key."""
        if not isinstance(text, str):
            raise ConfigurationError(f"cannot parse FlowPairKey from {text!r}")
        parts = [p.strip() for p in text.split(PAIR_SEPARATOR)]
        if len(parts) != 2 or not all(parts):
            raise ConfigurationError(
                f"expected '<first>{PAIR_SEPARATOR}<second>', got {text!r}"
            )
        return cls(parts[0], parts[1])

    def reversed(self) -> "FlowPairKey":
        """The opposite conditioning direction, ``(second | first)``."""
        return FlowPairKey(self.second, self.first)

    def __str__(self):
        return f"{self.first}{PAIR_SEPARATOR}{self.second}"

    def label(self) -> str:
        """Human-facing form used in report headers."""
        return f"({self.first} | {self.second})"

    def __repr__(self):
        return f"FlowPairKey({self.first!r}, {self.second!r})"


def as_pair_key(value) -> FlowPairKey:
    """Normalize *value* — a :class:`FlowPairKey` (returned unchanged) or
    an ``"A|B"`` string — into a :class:`FlowPairKey`."""
    if isinstance(value, FlowPairKey):
        return value
    if isinstance(value, str):
        return FlowPairKey.parse(value)
    raise ConfigurationError(
        f"cannot interpret {value!r} as a flow pair key; use "
        "FlowPairKey(first, second) or an 'A|B' string"
    )


class PairDataRegistry:
    """Typed mapping of :class:`FlowPairKey` -> ``FlowPairDataset``.

    Provides the flow-name bookkeeping Algorithm 1 needs
    (:meth:`flow_names`) plus dict-style access that accepts keys or
    ``"A|B"`` strings.
    """

    def __init__(self, datasets=None):
        self._datasets: dict = {}
        if datasets:
            for key, dataset in dict(datasets).items():
                self.add(key, dataset)

    @classmethod
    def coerce(cls, data) -> "PairDataRegistry":
        """Accept a registry (unchanged) or a dict (normalized)."""
        if isinstance(data, cls):
            return data
        if data is None:
            raise DataError("no pair data supplied")
        return cls(data)

    def add(self, key, dataset) -> FlowPairKey:
        key = as_pair_key(key)
        self._datasets[key] = dataset
        return key

    def flow_names(self) -> set:
        """Every flow name that appears in some registered pair."""
        names = set()
        for key in self._datasets:
            names.add(key.first)
            names.add(key.second)
        return names

    def keys(self) -> list:
        return list(self._datasets)

    def items(self):
        return self._datasets.items()

    def __getitem__(self, key):
        return self._datasets[as_pair_key(key)]

    def __contains__(self, key):
        try:
            return as_pair_key(key) in self._datasets
        except ConfigurationError:
            return False

    def __len__(self):
        return len(self._datasets)

    def __iter__(self):
        return iter(self._datasets)

    def __repr__(self):
        return f"PairDataRegistry({sorted(str(k) for k in self._datasets)})"
