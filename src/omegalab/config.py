"""Experiment configuration and deterministic seed derivation.

Every random draw in the pipeline flows from one base seed through
child_seed, so a report is a pure function of its configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .generic import check_grid_size

# stream tags for child_seed
GRID_TAG = 1
PERM_TAG = 2
HOMOG_TAG = 4

_SEED_MOD = 1 << 63


def child_seed(seed: int, tag: int, index: int) -> int:
    """Derive the seed for stream (tag, index) from a base seed.

    Plain affine arithmetic: collisions between the small tag/index values
    used here would need coefficient cancellation across primes, which the
    chosen constants rule out.
    """
    if tag < 0 or index < 0:
        raise ValueError("tag and index must be >= 0")
    return (seed * 1_000_003 + tag * 97_397 + index * 7_919 + 12_345) % _SEED_MOD


_JSON_KEYS = {
    "builds": "K",
    "universe": "N",
    "rows": "Ma",
    "cols": "Mk",
    "value_bound": "V",
    "threshold": "t",
    "depth": "d",
    "probes": "q",
    "probe_bound": "probe_bound",
    "search_bound": "search_bound",
    "samples": "samples",
    "seed": "seed",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the end-to-end experiment (see cli diag-experiment)."""

    builds: int          # K: number of constructed sets
    universe: int        # N: ambient universe for the families
    rows: int            # Ma: target grid rows
    cols: int            # Mk: target grid columns
    value_bound: int     # V: grid values drawn from [0, V)
    threshold: int       # t: least combination size demanded
    depth: int           # d: combination depth checked
    probes: int          # q: probe indices per build schedule
    probe_bound: int     # probes checked by the density pass
    search_bound: int    # witness searches stay below this index
    samples: int         # sampled permutations in the capture pass
    seed: int

    def __post_init__(self):
        positive = ("builds", "universe", "rows", "cols", "value_bound",
                    "threshold", "probe_bound", "search_bound")
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        nonneg = ("depth", "probes", "samples", "seed")
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        check_grid_size(self.rows, self.cols)
        # every build's chain names points below the search bound
        if self.search_bound > self.universe:
            raise ValueError("search bound cannot exceed the universe size")
        # each sample reads the permutation at the points below rows
        if self.samples and self.rows > self.universe:
            raise ValueError(f"rows ({self.rows}) must not exceed the "
                             f"universe ({self.universe}) when samples are "
                             f"drawn")

    def to_json_obj(self) -> dict[str, Any]:
        return {key: getattr(self, field) for field, key in _JSON_KEYS.items()}

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        kwargs = {}
        for field, key in _JSON_KEYS.items():
            if key not in obj:
                raise ValueError(f"config is missing key {key!r}")
            value = obj[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be an integer")
            kwargs[field] = value
        extra = set(obj) - set(_JSON_KEYS.values())
        if extra:
            raise ValueError(f"config has unknown keys {sorted(extra)}")
        return cls(**kwargs)
