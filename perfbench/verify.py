"""The benchmark's own checks on each ``recognize`` result, and the digest of results.

Nothing here uses ``assert`` or the package's layout code, so the checks run
unchanged under ``python -O`` and cannot share a defect with the program.
"""

from __future__ import annotations

import hashlib
from numbers import Integral


def max_stretch(edges, forward) -> int | None:
    """Largest ``|forward[u] - forward[v]|`` over ``edges``.

    Returns ``None`` when ``forward`` is not a bijection onto ``0..n-1``
    with ``n = len(forward)``.
    """
    n = len(forward)
    seen = [False] * n
    for pos in forward:
        if isinstance(pos, bool) or not isinstance(pos, Integral) or not 0 <= pos < n or seen[pos]:
            return None
        seen[pos] = True
    worst = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return None
        d = abs(forward[u] - forward[v])
        if d > worst:
            worst = d
    return worst


def failure(instance, result) -> str | None:
    """Why ``result`` is wrong for ``instance``, or ``None`` when it is right.

    ``result`` is what ``recognize`` returned, or the exception it raised.
    """
    if isinstance(result, BaseException):
        return f"raised {result!r}"
    if result.verdict != instance.label:
        return f"verdict {result.verdict!r}, label {instance.label!r}"
    if not result.verdict:
        return None
    forward = getattr(result.certificate, "forward", None)
    if forward is None or len(forward) != instance.graph.n:
        return "no certificate of the right size"
    stretch = max_stretch(instance.edges, forward)
    if stretch is None:
        return "certificate is not a bijection onto 0..n-1"
    if stretch > instance.k:
        return f"certificate stretches an edge to {stretch} > k={instance.k}"
    return None


def outcome(result) -> str:
    """``"yes"``, the negative reason, or ``"error"`` for a call that raised."""
    if isinstance(result, BaseException):
        return "error"
    return "yes" if result.verdict else str(result.negative_reason)


def result_key(result) -> str:
    """Canonical text of one outcome: verdict, negative reason and certificate."""
    if isinstance(result, BaseException):
        return f"error {type(result).__name__}"
    forward = getattr(result.certificate, "forward", None)
    cert = None if forward is None else tuple(forward)
    return repr((result.verdict, result.negative_reason, cert))


def results_digest(keys) -> str:
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()
