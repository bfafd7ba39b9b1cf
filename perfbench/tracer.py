"""Run one segprior CLI command with perf_counter spans around its layers.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <segprior CLI arguments>

The wrappers are installed from outside the program: nothing under src/
knows about them.  Each name is wrapped where the program looks it up at
call time (a class attribute, a module attribute read at each call, or the
name an importer bound into its own namespace), so a stale binding shows up
as a declared span that never fires.  A target that no longer exists is
reported as missing instead of stopping the run.

Spans stay in memory and are written to SPANS_JSON when the command ends:
{"missing", "names", "spans": [[name, t0, t1, parent, info]]},
where name indexes "names", parent indexes the enclosing span (-1 at top
level), info is a per-call count (FLOPs or bytes) or null, and "missing"
lists the span names whose target could not be found.
"""

import functools
import importlib
import json
import sys
import time

SPANS = []
_STACK = []


def _conv_flops(conv, x, direction):
    """Multiply-adds x2 of one conv call, from the shapes it was called with."""
    k, _, cin, cout = conv.W.shape
    if direction == "fwd":
        b, h, w, _ = x.shape
        ho = (h + 2 - k) // conv.stride + 1 if k == 3 else h
        wo = (w + 2 - k) // conv.stride + 1 if k == 3 else w
        return 2 * b * ho * wo * k * k * cin * cout
    b, ho, wo, _ = x.shape   # dy: weight gradient plus input gradient
    return 4 * b * ho * wo * k * k * cin * cout


def _conv_fwd_flops(args):
    return _conv_flops(args[0], args[1], "fwd")


def _conv_bwd_flops(args):
    return _conv_flops(args[0], args[1], "bwd")


def _cols_bytes(args):
    return args[4].nbytes


# (module, attribute path inside it, span name, per-call count or None).
# A "*" in the span name stands for the called layer's own name.
TARGETS = (
    ("segprior.layers", "Conv2d.forward", "layers.conv.*.fwd", _conv_fwd_flops),
    ("segprior.layers", "Conv2d.backward", "layers.conv.*.bwd", _conv_bwd_flops),
    ("segprior.layers", "ChannelNorm.forward", "layers.norm.fwd", None),
    ("segprior.layers", "ChannelNorm.backward", "layers.norm.bwd", None),
    ("segprior.layers", "LeakyReLU.forward", "layers.act.fwd", None),
    ("segprior.layers", "LeakyReLU.backward", "layers.act.bwd", None),
    ("segprior.layers", "SGDMomentum.step", "layers.sgd.step", None),
    ("segprior.kernels", "im2col_k3", "kernels.im2col_k3", _cols_bytes),
    ("segprior.kernels", "col2im_k3", "kernels.col2im_k3", None),
    ("segprior.kernels", "nearest_resize", "kernels.nearest_resize", None),
    ("segprior.engine", "incremental_step", "engine.incremental_step", None),
    ("segprior.engine", "incremental_batch", "engine.incremental_batch", None),
    ("segprior.engine", "Snapshot.predict", "engine.Snapshot.predict", None),
    ("segprior.engine", "predict_dataset", "engine.predict_dataset", None),
    ("segprior.engine", "save_checkpoint", "engine.save_checkpoint", None),
    ("segprior.engine", "load_checkpoint", "engine.load_checkpoint", None),
    # engine bound mix_batch into its own namespace at import time
    ("segprior.engine", "mix_batch", "memory.mix_batch", None),
    ("segprior.objectives", "cls_loss_grad", "objectives.cls_loss_grad", None),
    ("segprior.objectives", "rasp_loss_grad", "objectives.rasp_loss_grad", None),
    ("segprior.simprior", "argmax_label_map", "simprior.argmax_label_map", None),
    ("segprior.simprior", "similarity_maps", "simprior.similarity_maps", None),
    ("segprior.memory", "populate_episodic", "memory.populate_episodic", None),
    ("segprior.evalkit", "confusion_accumulate", "evalkit.confusion_accumulate",
     None),
    ("segprior.synthdata", "generate_dataset", "synthdata.generate_dataset", None),
    ("segprior.synthdata", "load_dataset", "synthdata.load_dataset", None),
)


def _wrap(fn, span, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span.replace("*", str(getattr(args[0], "name", "?")))
        info = None
        if count is not None:
            try:
                info = count(args)
            except (AttributeError, IndexError, TypeError, ValueError):
                pass
        idx = len(SPANS)
        SPANS.append(None)
        parent = _STACK[-1] if _STACK else -1
        _STACK.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            _STACK.pop()
            SPANS[idx] = (name, t0, t1, parent, info)
    return wrapper


def install():
    """Wrap every target that exists; return the span names of those that do not."""
    missing = []
    for module_name, path, span, count in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(span)
            continue
        setattr(owner, attr, _wrap(fn, span, count))
    return missing


def _write(path, missing):
    names = sorted({s[0] for s in SPANS})
    index = {n: i for i, n in enumerate(names)}
    spans = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in SPANS]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"missing": missing, "names": names, "spans": spans}, fh)


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py SPANS_JSON -- <segprior arguments>", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    # the CLI module sets its BLAS thread default before numpy is imported
    from segprior import cli

    missing = install()
    try:
        return cli.main(argv)
    finally:
        _write(out, missing)


if __name__ == "__main__":
    sys.exit(main())
