"""Exception hierarchy for the Grafite reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause,
while still being able to distinguish configuration mistakes
(:class:`InvalidParameterError`) from data problems
(:class:`InvalidKeyError`, :class:`InvalidQueryError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidParameterError(ReproError, ValueError):
    """A construction parameter is out of its documented domain.

    Examples: a non-positive universe, ``eps`` outside ``(0, 1)``, a space
    budget too small to hold the mandatory per-key overhead.
    """


class InvalidKeyError(ReproError, ValueError):
    """An input key is outside the declared universe or of the wrong type."""


class InvalidQueryError(ReproError, ValueError):
    """A query range is malformed (e.g. ``lo > hi`` or out of universe)."""


class NotSupportedError(ReproError, NotImplementedError):
    """The requested operation is not supported by this filter variant."""


class CorruptionError(ReproError):
    """Persisted state failed an integrity check (checksum, structure).

    Raised when a run blob, manifest, or other persisted artifact does
    not match its recorded crc32 or cannot be parsed. The storage layer
    *never* serves data that failed verification — recovery either rolls
    back to the last intact checkpoint epoch or surfaces this error, but
    a corrupt byte must not become a silently wrong query answer.
    """


class DeadlineExceeded(ReproError, TimeoutError):
    """A per-request deadline elapsed before the operation completed.

    Subclasses :class:`TimeoutError` so generic timeout handling catches
    it, and :class:`ReproError` so library-aware callers can treat it as
    one of ours. Retryable under the network clients'
    :class:`~repro.net.client.RetryPolicy` — the request may simply have
    hit a stalled server or a slow network, and retrying an emptiness
    probe or idempotent mutation is safe.
    """

