"""The row-based certificate that the table-based ``wedge._axioms_hold`` replaced.

``rows_die`` is the body of the old ``wedge._relators_die``: it reads each
signed letter of a block of ``wedge._raw_relator_rows`` as its pair image
(inverted for a negative letter, the identity for the 0 padding) and
multiplies the three images in L. ``first_failing_block`` runs it over
blocks such as those of ``wedge._relator_blocks``. The tests compare the
library against them; nothing here is library code.
"""

import numpy as np

from grouplab.groups import table_arrays


def rows_die(rows, L, images):
    """Whether every relator row is the identity of L with pair p read as images[p]."""
    mul, inv, _ = table_arrays(L)
    images = np.concatenate([[0], np.asarray(images, dtype=np.int32)])  # letter 0 pads
    vals = images[np.abs(rows)]
    vals = np.where(rows < 0, inv[vals], vals)
    return bool(np.all(mul[mul[vals[:, 0], vals[:, 1]], vals[:, 2]] == 0))


def first_failing_block(blocks, L, images):
    """The index of the first of the blocks of raw rows in which a relator survives, or None."""
    for index, rows in enumerate(blocks):
        if not rows_die(rows, L, images):
            return index
    return None
