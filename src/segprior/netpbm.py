"""Minimal binary netpbm (P5/P6) reading and writing for uint8 data."""

import numpy as np


def _as_bytes(values, kind):
    """values as a contiguous uint8 array; ValueError if any lies outside
    [0, 255], where a cast would wrap it (300 to 44, -1 to 255)."""
    values = np.asarray(values)
    if values.dtype != np.uint8 and values.size and (
            values.min() < 0 or values.max() > 255):
        raise ValueError(f"{kind} values must lie in [0, 255], found "
                         f"{values.min()} to {values.max()}")
    return np.ascontiguousarray(values, dtype=np.uint8)


def write_pgm(path, gray):
    """Write a (H, W) array of values in [0, 255] as a binary portable graymap."""
    gray = _as_bytes(gray, "PGM")
    if gray.ndim != 2:
        raise ValueError("PGM data must be 2-D")
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def write_ppm(path, rgb):
    """Write a (H, W, 3) array of values in [0, 255] as a binary portable pixmap."""
    rgb = _as_bytes(rgb, "PPM")
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError("PPM data must be (H, W, 3)")
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _read_header(fh, magic, path):
    if fh.read(2) != magic:
        raise ValueError(f"not a {magic.decode()} file: {path}")
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ValueError(f"truncated netpbm header in {path}")
        line = line.split(b"#", 1)[0]
        fields.extend(int(tok) for tok in line.split())
    w, h, maxval = fields[:3]
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported: {path}")
    return w, h


def read_pgm(path):
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P5", path)
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    if data.size != w * h:
        raise ValueError(f"truncated PGM payload in {path}")
    return data.reshape(h, w).copy()


def read_ppm(path):
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P6", path)
        data = np.frombuffer(fh.read(w * h * 3), dtype=np.uint8)
    if data.size != w * h * 3:
        raise ValueError(f"truncated PPM payload in {path}")
    return data.reshape(h, w, 3).copy()
