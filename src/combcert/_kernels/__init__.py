"""Kernel facade: compiled extension when built, pure Python otherwise.

The two hot loops of the package live here: the subset sweep behind the
feasibility checker (and lazy SEC separation in a non-default size
window; the default window is separated by min cut in `combcert.lp`),
and Hamiltonian-cycle enumeration.  `BACKEND` reports which
implementation was selected at import.  The compiled subset scan
allocates a 2^n int64 table, so the facade routes instances that are
too large for int64 arithmetic (or for memory) to the reference
implementation regardless of availability.
"""

from __future__ import annotations

import importlib
import os

from . import reference

_speedups = None
if not os.environ.get("COMBCERT_PURE"):
    try:
        _speedups = importlib.import_module("._speedups", __name__)
    except ImportError:  # pragma: no cover - build-dependent
        _speedups = None
BACKEND = "pure" if _speedups is None else "compiled"

_SCAN_MAX_VERTICES = 24
_INT64_GUARD = 1 << 62


def _int64_safe(weights, denom, num_vertices) -> bool:
    if denom * max(num_vertices - 1, 1) >= _INT64_GUARD:
        return False
    return sum(abs(w) for w in weights) < _INT64_GUARD


def sec_violations(num_vertices, edge_masks, weights, denom, lo, hi):
    """Violated subtour subsets as sorted (mask, scaled_value) pairs."""
    if (
        _speedups is not None
        and num_vertices <= _SCAN_MAX_VERTICES
        and _int64_safe(weights, denom, num_vertices)
    ):
        found = _speedups.sec_violations(
            num_vertices, list(edge_masks), list(weights), denom, lo, hi
        )
    else:
        found = reference.sec_violations(
            num_vertices, list(edge_masks), list(weights), denom, lo, hi
        )
    found.sort(key=lambda item: (bin(item[0]).count("1"), item[0]))
    return found


def hamiltonian_cycles(n, adj12, adj21):
    """Canonical alternating tour sequences (lists of index tuples)."""
    if _speedups is not None and n <= 20:
        return _speedups.hamiltonian_cycles(n, list(adj12), list(adj21))
    return list(reference.hamiltonian_cycles(n, list(adj12), list(adj21)))
