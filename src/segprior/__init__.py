"""Weakly supervised class-incremental semantic segmentation, desk scale.

A small numpy package that trains a toy segmentation model over a sequence
of class-incremental steps where new classes arrive with image-level labels
only.  New classes borrow spatial evidence from semantically related old
classes: a pairwise table built from class-name embeddings gives each
(old class, new class) pair a target, and each pixel takes the row of the
old class the previous model predicts there (see ``segprior.simprior``).

Everything is plain numpy with one numeric path.  The input image is
rearranged space to depth once, 2x2 pixels to one 12-channel pixel, so
every convolution is stride 1: k*k shifted GEMMs over its input, padded
once (a 1x1 conv is the one-tap case and reads its input as it is).  A
layer's forward cache belongs to its caller: layers keep no work buffers
between calls.  Every batch, the evaluation set (image by image) and each
generated split run as two fixed shards, shard 0 in the calling process
and shard 1 in a worker process forked from it; callers pass
``layers.Shards`` a count, and it cuts the shards itself (see
``segprior.layers``).  A dataset manifest loads as a
sequence that reads each image and its uint8 mask when indexed
(``segprior.synthdata``): training chooses its rows from the manifest's
class lists and reads only the images it uses, and evaluation's shards
each read their own images one at a time.  An incremental step labels
its rows in one place, from the classes each shows: a step row with the
step's new classes, a replay-memory row with the old foreground classes
(``engine._prepare_pool``).  In training each shard runs
its items in cache-sized groups of at most four; each
group computes its own items' losses with whole-batch normalisers and runs
its own backward before the next group starts, so the summed group
gradients equal the whole batch's (see ``segprior.engine``).
"""

__version__ = "0.1.0"
