"""The sampled well-definedness check that the exact coset comparison replaced.

``sampled_fuzz`` is the body of ``isoclinism.well_definedness_fuzz`` as it
was: it draws one central element per coset representative of the target,
``trials`` times, and compares gamma's pair table at the perturbed lifts with
the table at the kept section. The same draw moves both arguments of a pair
whose arguments lie in one coset, so a wrong pair image at (s·z, s·z') with
z != z' is never read. The tests use it to show that blind spot; nothing here
is library code.
"""

import random

import numpy as np

from grouplab.errors import ValidationError
from grouplab.groups import center, table_arrays
from grouplab.isoclinism import _central_data, _check_inputs, _coset_images, _pair_table


def sampled_fuzz(w, wedge1, wedge2, trials=100, seed=0):
    """Perturb coset representatives by central elements; gamma must not move."""
    if trials < 1:
        raise ValidationError(f"fuzz trials must be at least 1, got {trials}")
    _check_inputs(w, wedge1, wedge2)
    Z2 = sorted(center(w.target).members)
    if len(Z2) == 1:  # every perturbation is the identity
        return True
    mul2, sec2 = table_arrays(w.target)[0], _central_data(w.target)[3]
    pairs2, coset = wedge2.pair_table(), _coset_images(w.source, w.alpha)
    baseline = _pair_table(pairs2, coset, sec2)
    rng = random.Random(seed)
    for start in range(0, trials, 100):  # 100 trials at a time bound the memory
        draws = [rng.choice(Z2) for _ in range(min(100, trials - start) * len(sec2))]
        perturbed = mul2[sec2, np.reshape(draws, (-1, len(sec2)))]
        if not np.all(_pair_table(pairs2, coset, perturbed) == baseline):
            return False
    return True
