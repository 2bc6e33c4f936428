"""The retry rule shared by the harness and the runtime executor.

The paper's Section 5.2 reports that endpoints outside North America and
Europe "frequently failed and required re-collection".  A flaky endpoint
is retried once: :data:`MAX_ATTEMPTS` counts *total* attempts, and it
bounds the harness's connect and leakage-test retries and the executor's
unit retries alike.  Nothing waits between attempts: the simulated
internet has no real flakiness, so a retry runs at once.
"""

from __future__ import annotations

import hashlib

#: Total attempts at a connect, a leakage test or a unit: one retry.
MAX_ATTEMPTS = 2


def stable_hash(*parts: object) -> int:
    """A process-independent 64-bit hash of the given parts.

    ``hash()`` is salted per interpreter; study seeds and span IDs must
    not be, or worker processes would disagree with the coordinator.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
