"""Weakly supervised class-incremental semantic segmentation, desk scale.

A small numpy package that trains a toy segmentation model over a sequence
of class-incremental steps where new classes arrive with image-level labels
only.  New classes borrow spatial evidence from semantically related old
classes: a pairwise table built from class-name embeddings gives each
(old class, new class) pair a target, and each pixel takes the row of the
old class the previous model predicts there (see ``segprior.simprior``).

Everything is plain numpy with one numeric path.  The encoder's stride-1
3x3 convolutions run as shifted GEMMs over the flattened zero-padded input,
every batch (and the evaluation set, image by image) runs as two fixed
shards on two threads, and a layer's forward cache stays valid until the
next forward of the same layer on the same thread (see
``segprior.layers``).  In training each shard computes its own
items' losses with whole-batch normalisers and runs its own backward, so
the summed shard gradients equal the whole batch's (see
``segprior.engine``).
"""

__version__ = "0.1.0"
