"""Retry policy shared by the harness and the runtime executor.

The paper's Section 5.2 reports that endpoints outside North America and
Europe "frequently failed and required re-collection"; the seed harness
handled that with a single hard-coded inline retry around the connect call.
:class:`RetryPolicy` extracts that behaviour into a reusable, seeded
policy: bounded attempts, exponential backoff, and *deterministic* jitter
derived from ``(policy seed, unit key, attempt)`` so two runs of the same
study schedule identical delays regardless of worker count.

The policy is pure — it never sleeps itself.  The simulated internet has
no real flakiness, so the executor retries a unit at once and only reports
the computed backoff (``UnitRetried.backoff_s``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


def stable_hash(*parts: object) -> int:
    """A process-independent 64-bit hash of the given parts.

    ``hash()`` is salted per interpreter; study seeds and jitter must not
    be, or worker processes would disagree with the coordinator.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded exponential backoff.

    ``max_attempts`` counts *total* attempts, so ``max_attempts=2`` is the
    seed harness's "retry once" behaviour and ``max_attempts=1`` disables
    retries entirely.
    """

    max_attempts: int = 2
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.25  # +/- fraction of the nominal backoff
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def should_retry(self, attempt: int) -> bool:
        """Whether another attempt is allowed after *attempt* failures."""
        return attempt < self.max_attempts

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Delay before retry number *attempt* (1-based), jittered.

        Deterministic in ``(seed, key, attempt)``: the same unit retried at
        the same attempt always backs off for the same duration, on any
        worker of any run.
        """
        if attempt < 1:
            return 0.0
        nominal = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if not self.jitter:
            return nominal
        rng = random.Random(stable_hash(self.seed, key, attempt))
        swing = self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, nominal * (1.0 + swing))

    @classmethod
    def no_retries(cls) -> "RetryPolicy":
        return cls(max_attempts=1)

    @classmethod
    def single_retry(cls) -> "RetryPolicy":
        """The seed harness's inline behaviour (one retry, no waiting)."""
        return cls(max_attempts=2, backoff_base_s=0.0, jitter=0.0)
