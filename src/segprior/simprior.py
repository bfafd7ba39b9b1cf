"""The semantic prior (RaSP) as one pairwise table, old class x new class.

The prior is a pairwise interaction between classes: at a pixel where the
old model predicts old class o, new class k takes the target

    T[o, k] = sigmoid(sigmoid(exp((sim(o, k) - sim('bkg', k)) / tau)))

The ratio exp(sim(o, k) / tau) / exp(sim('bkg', k) / tau) is computed as
one exp of the difference, so it never overflows.  It is exactly 1 where
the old model predicts background and above 1 where it predicts an old
class closer to k than background is.  The table depends only on the
step's class lists, so it is built once per step; a pixel's targets are
the row of the old model's argmax channel, at the columns of the new
classes present in the image.
"""

from __future__ import annotations

import numpy as np

from .objectives import sigmoid


def rasp_target_table(sim, registry, old_names, new_names, tau, dtype):
    """RaSP targets T[o, k], shaped (len(old_names), len(new_names)).

    Row o is the old model's channel o and column k the new class
    new_names[k]; ``sim`` is the registry-indexed matrix of
    :func:`segprior.class_semantics.similarity_matrix`.  The inner sigmoid
    runs in float64 and the outer one in ``dtype``.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rows = [registry.index_of(name) for name in old_names]
    cols = [registry.index_of(name) for name in new_names]
    bkg = registry.index_of(registry.background_name)
    ratio = np.exp((sim[np.ix_(rows, cols)] - sim[bkg, cols]) / tau)
    # squashed twice; ROADMAP item 1(b) questions both squashes and tau
    return sigmoid(sigmoid(ratio).astype(dtype))
