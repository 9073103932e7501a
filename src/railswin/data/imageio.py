"""Binary PGM (P5) / PPM (P6) reading and writing for 8-bit images.

Grayscale images are [H, W] uint8 arrays, color images [H, W, 3].
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import ParseError


def write_pnm(path, pixels):
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ParseError(f"pnm pixels must be uint8, got {pixels.dtype}")
    if pixels.ndim == 2:
        magic, h, w = b"P5", *pixels.shape
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic, h, w = b"P6", pixels.shape[0], pixels.shape[1]
    else:
        raise ParseError(f"pnm pixels must be [H, W] or [H, W, 3], got {pixels.shape}")
    # no O_TRUNC: a rewrite reuses the file's blocks instead of freeing and
    # reallocating them, and the truncate after the write drops a longer tail
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())
        fh.truncate()


def read_pnm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        magic = raw[:2]
        if magic not in (b"P5", b"P6"):
            raise ParseError(f"{path}: not a binary PGM/PPM file")
        # header: magic, width, height, maxval as whitespace-separated tokens,
        # with optional '#' comment lines
        pos, tokens = 2, []
        while len(tokens) < 3:
            while pos < len(raw) and raw[pos : pos + 1].isspace():
                pos += 1
            if raw[pos : pos + 1] == b"#":
                while pos < len(raw) and raw[pos] != 0x0A:
                    pos += 1
                continue
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            tokens.append(int(raw[start:pos]))
        pos += 1  # single whitespace after maxval
        w, h, maxval = tokens
        if maxval != 255:
            raise ParseError(f"{path}: only 8-bit images supported, maxval={maxval}")
        channels = 1 if magic == b"P5" else 3
        data = np.frombuffer(raw, dtype=np.uint8, count=h * w * channels, offset=pos)
        if channels == 1:
            return data.reshape(h, w).copy()
        return data.reshape(h, w, 3).copy()
    except (ValueError, IndexError) as e:
        raise ParseError(f"{path}: malformed PNM header or payload: {e}") from e
