"""Test oracle: PGL_3(F_q) as the list of all its normalized matrices.

The tests compare the library's Galois-descent classes, and the class walk
of `pgl3_walk.py`, against this independent scan of all q^9 entry tuples,
which is practical for q <= 3.
"""

import functools
import itertools

from cremona_kit import linalg
from cremona_kit.orbits import apply_matrix, lift_matrix, point_sort_key


@functools.lru_cache(maxsize=None)
def pgl3_matrices(field):
    """All elements of PGL_3(field) as invertible matrices whose first
    nonzero entry is 1, in lexicographic order of the entries."""
    elems = sorted(field.elements(), key=field.to_int)
    out = []
    for entries in itertools.product(elems, repeat=9):
        first = next((e for e in entries if not field.is_zero(e)), None)
        if first != field.one:
            continue
        M = [list(entries[0:3]), list(entries[3:6]), list(entries[6:9])]
        if field.is_zero(linalg.det3(field, M)):
            continue
        out.append(M)
    return out


def sweep_images(field, K, pts):
    """Set keys (sorted point keys) of the images of the points pts (in K)
    under every element of PGL_3(field)."""
    images = set()
    for M in pgl3_matrices(field):
        rows = lift_matrix(K, field, M)
        images.add(tuple(sorted(point_sort_key(K, apply_matrix(K, rows, p)) for p in pts)))
    return images
