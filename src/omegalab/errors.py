"""Exception types shared across the package.

Argument-shape problems (wrong lengths, malformed JSON, out-of-range
parameters) raise plain ValueError; the classes below mark *outcomes*
that callers are expected to catch and report.
"""


class OmegalabError(Exception):
    """Base class for package-specific, catchable conditions."""


class GridOverflow(OmegalabError):
    """A computation needed a grid row/column outside the grid bounds."""

    kind = "grid-overflow"  # the failure kind of a build it stops


class SearchExhausted(OmegalabError):
    """No witness exists below the requested search bound."""

    kind = "search-exhausted"


class IncompatiblePair(OmegalabError):
    """A point map and a set map contradict each other on some membership."""


class InducedMapNotPermutation(OmegalabError):
    """The set map does not act bijectively on the partition cells."""


class CardinalityMismatch(OmegalabError):
    """Two cells that must be matched up have different sizes."""
