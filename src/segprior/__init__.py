"""Weakly supervised class-incremental semantic segmentation, desk scale.

A small numpy package that trains a toy segmentation model over a sequence
of class-incremental steps where new classes arrive with image-level labels
only.  New classes borrow spatial evidence from semantically related old
classes: a pairwise table built from class-name embeddings gives each
(old class, new class) pair a target, and each pixel takes the row of the
old class the previous model predicts there (see ``segprior.simprior``).

Everything is plain numpy with one numeric path.  Every 3x3 convolution,
stride 1 or 2, runs as shifted GEMMs over the phase grids of its
zero-padded input, every batch (and the evaluation set, image by image)
runs as two fixed shards, shard 0 in the calling process and shard 1 in a
worker process forked from it, and a layer's forward cache stays valid
until the next forward of the same layer in the same process (see
``segprior.layers``).  In training each shard runs its items in
cache-sized groups of at most four; each group computes its own items'
losses with whole-batch normalisers and runs its own backward before the
next group starts, so the summed group gradients equal the whole batch's
(see ``segprior.engine``).
"""

__version__ = "0.1.0"
