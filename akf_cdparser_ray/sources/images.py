"""Deterministic tiny image codecs + perceptual hash.

The sandbox has no image libraries, so (per the repo instructions) the
lossless codecs are real minimal implementations (24-bit BMP; 8-bit RGB
PNG, filter 0) and the lossy path is a clearly-marked deterministic fake
("fjpg": quantized RGB, zlib-compressed) whose decode satisfies the
PSNR ≥ 40 dB invariant from BASELINE.json. All Ray-side plumbing (schema,
batch shapes, actor signatures) treats these like real codecs.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_FAKE_JPEG_MAGIC = b"FJPG"


# ---------------------------------------------------------------------------
# BMP (24-bit, bottom-up, BI_RGB)
# ---------------------------------------------------------------------------


def encode_bmp(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    row_size = (w * 3 + 3) & ~3
    img_size = row_size * h
    header = struct.pack(
        "<2sIHHI", b"BM", 14 + 40 + img_size, 0, 0, 14 + 40
    ) + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size, 2835, 2835, 0, 0)
    # bottom-up BGR rows, zero-padded to 4 bytes, as one array
    rows = np.zeros((h, row_size), dtype=np.uint8)
    rows[:, : w * 3] = pixels[::-1, :, ::-1].reshape(h, w * 3)
    return header + rows.tobytes()


def decode_bmp(data: bytes) -> np.ndarray:
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    offset = struct.unpack_from("<I", data, 10)[0]
    w = struct.unpack_from("<i", data, 18)[0]
    h = struct.unpack_from("<i", data, 22)[0]
    bpp = struct.unpack_from("<H", data, 28)[0]
    if bpp != 24:
        raise ValueError("only 24-bit BMP supported")
    row_size = (w * 3 + 3) & ~3
    out = np.empty((h, w, 3), dtype=np.uint8)
    for y in range(h):
        row = np.frombuffer(data, dtype=np.uint8, count=w * 3, offset=offset + y * row_size)
        out[h - 1 - y] = row.reshape(w, 3)[:, ::-1]
    return out


# ---------------------------------------------------------------------------
# PNG (8-bit RGB, no interlace, filter 0)
# ---------------------------------------------------------------------------


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    raw = np.zeros((h, w * 3 + 1), dtype=np.uint8)  # filter byte 0 per row
    raw[:, 1:] = pixels.reshape(h, w * 3)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + _png_chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
        + _png_chunk(b"IEND", b"")
    )


def decode_png(data: bytes) -> np.ndarray:
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4: pos + 8]
        payload = data[pos + 8: pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, color, *_ = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or color != 2:
                raise ValueError("only 8-bit RGB PNG supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    raw = zlib.decompress(idat)
    stride = w * 3 + 1
    out = np.empty((h, w, 3), dtype=np.uint8)
    prev = np.zeros(w * 3, dtype=np.uint8)
    for y in range(h):
        row = raw[y * stride: (y + 1) * stride]
        ftype = row[0]
        cur = np.frombuffer(row, dtype=np.uint8, offset=1).copy()
        if ftype == 0:
            pass
        elif ftype == 2:  # Up
            cur = (cur.astype(np.int16) + prev).astype(np.uint8)
        else:
            raise NotImplementedError(f"PNG filter {ftype} not supported by mini-decoder")
        out[y] = cur.reshape(w, 3)
        prev = cur
    return out


# ---------------------------------------------------------------------------
# Fake lossy codec ("jpeg" rows) — DETERMINISTIC STUB, see module docstring
# ---------------------------------------------------------------------------


def encode_fake_jpeg(pixels: np.ndarray, quant: int = 4) -> bytes:
    h, w, _ = pixels.shape
    q = (pixels.astype(np.int16) // quant * quant + quant // 2).clip(0, 255).astype(np.uint8)
    return (
        _FAKE_JPEG_MAGIC
        + struct.pack("<HHB", w, h, quant)
        + zlib.compress(q.tobytes(), 6)
    )


def decode_fake_jpeg(data: bytes) -> np.ndarray:
    if data[:4] != _FAKE_JPEG_MAGIC:
        raise ValueError("not a fake-jpeg payload")
    w, h, _quant = struct.unpack_from("<HHB", data, 4)
    raw = zlib.decompress(data[9:])
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# dispatch + phash
# ---------------------------------------------------------------------------

_ENCODERS = {"bmp": encode_bmp, "png": encode_png, "jpeg": encode_fake_jpeg}
_DECODERS = {"bmp": decode_bmp, "png": decode_png, "jpeg": decode_fake_jpeg}


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    return _ENCODERS[fmt](pixels)


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    return _DECODERS[fmt](data)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def phash64(pixels: np.ndarray) -> int:
    """8×8 block-mean hash → signed 64-bit int (matches ``phash:int64``)."""
    # mean(axis=2) in its own summation order (any order is exact for
    # integer pixels), as whole-array adds; RGB input only
    r, g, b = np.moveaxis(pixels.astype(np.float64), 2, 0)
    gray = (r + g + b) / 3
    h, w = gray.shape
    # np.linspace(0, n, 9).astype(int): n / 8 is exact, so the floors are too
    ys = [h * k // 8 for k in range(9)]
    xs = [w * k // 8 for k in range(9)]
    blocks = np.empty((8, 8))
    for i in range(8):
        band = gray[ys[i]: ys[i + 1]]
        for j in range(8):
            # ndarray.mean's own arithmetic (same summation order, so the
            # same bits) without its Python wrapper; an empty block is NaN
            blk = band[:, xs[j]: xs[j + 1]]
            blocks[i, j] = np.add.reduce(blk, axis=None) / blk.size
    bits = blocks > blocks.mean()
    return int(np.packbits(bits).view(">i8")[0])


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def synth_pixels(seed: int, w: int, h: int) -> np.ndarray:
    """Deterministic chart-like RGB image (pixels from seed ⊕ row index)."""
    rng = np.random.default_rng(seed)
    img = np.full((h, w, 3), 245, dtype=np.uint8)
    # axes
    img[h - 8, :, :] = 40
    img[:, 6, :] = 40
    # a price-curve-like polyline
    xs = np.arange(w)
    base = h // 2 + (rng.standard_normal(w).cumsum() * 2).astype(int)
    base = np.clip(base, 2, h - 10)
    color = rng.integers(0, 160, size=3, dtype=np.int64)
    img[base, xs] = color
    below = base + 1 < h
    img[base[below] + 1, xs[below]] = color
    # bars
    nbars = int(rng.integers(3, 8))
    for b in range(nbars):
        bx = 8 + b * max(4, (w - 16) // max(1, nbars))
        bh = int(rng.integers(4, max(5, h // 2)))
        img[h - 9 - bh: h - 9, bx: bx + 3] = (200, 80 + 10 * b, 60)
    return img
