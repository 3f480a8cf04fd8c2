"""Bindings of ``classes`` functions to the ring ``K``.

No code in the package calls them; they stay only because the benchmark's
traced run wraps them by name, until that run is retargeted at ``classes``.
"""

from __future__ import annotations

from functools import partial

from . import classes as cl
from .symcore import K

poincare_dual_k = partial(cl.poincare_dual, K)
atiyah_segal_index = partial(cl.pushforward, K)
local_index_k = partial(cl.local_index, K)
icanonical_basis_k = partial(cl.basis, K)
point_normalized_basis_k = partial(cl.basis, K, normalization="point")
expand_in_basis = partial(cl.expand_in_basis, K)
structure_constants = partial(cl.structure_constants, K)
