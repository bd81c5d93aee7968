"""Image kernels against their plain per-pixel forms.

``phash64``, ``synth_pixels`` and the BMP/PNG encoders are whole-array
numpy code; the reference forms below are the per-block, per-column and
per-row loops they replaced, kept here verbatim. The hash must agree bit
for bit (the phash goldens and near-duplicate joins depend on the exact
bits, including where float rounding decides a bit on a uniform image)."""

import struct
import zlib

import numpy as np
import pytest

from akf_cdparser_ray.sources import images as im


def phash64_reference(pixels: np.ndarray) -> int:
    gray = pixels.astype(np.float64).mean(axis=2)
    h, w = gray.shape
    ys = np.linspace(0, h, 9).astype(int)
    xs = np.linspace(0, w, 9).astype(int)
    blocks = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            blocks[i, j] = gray[ys[i]: ys[i + 1], xs[j]: xs[j + 1]].mean()
    bits = (blocks > blocks.mean()).flatten()
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return int(np.int64(np.uint64(val)))


def synth_pixels_reference(seed: int, w: int, h: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    img = np.full((h, w, 3), 245, dtype=np.uint8)
    img[h - 8, :, :] = 40
    img[:, 6, :] = 40
    xs = np.arange(w)
    base = h // 2 + (rng.standard_normal(w).cumsum() * 2).astype(int)
    base = np.clip(base, 2, h - 10)
    color = rng.integers(0, 160, size=3, dtype=np.int64)
    for x in xs:
        img[base[x], x] = color
        if base[x] + 1 < h:
            img[base[x] + 1, x] = color
    nbars = int(rng.integers(3, 8))
    for b in range(nbars):
        bx = 8 + b * max(4, (w - 16) // max(1, nbars))
        bh = int(rng.integers(4, max(5, h // 2)))
        img[h - 9 - bh: h - 9, bx: bx + 3] = (200, 80 + 10 * b, 60)
    return img


def bmp_pixel_rows_reference(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    pad = b"\x00" * (((w * 3 + 3) & ~3) - w * 3)
    bgr = pixels[:, :, ::-1]
    return b"".join(bgr[y].tobytes() + pad for y in range(h - 1, -1, -1))


def png_raw_reference(pixels: np.ndarray) -> bytes:
    return b"".join(b"\x00" + pixels[y].tobytes() for y in range(pixels.shape[0]))


def _images():
    """Seeded images of every kind the hash has to agree on."""
    rng = np.random.default_rng(1414)
    out = []
    for h in range(1, 21):
        for w in range(1, 21):
            out.append(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            out.append(rng.random((h, w, 3)) * 255.0)
    for _ in range(150):  # uniform colours whose grey value is not an integer
        h, w = (int(v) for v in rng.integers(1, 140, 2))
        out.append(np.broadcast_to(rng.integers(0, 256, 3, dtype=np.uint8),
                                   (h, w, 3)).copy())
    for _ in range(150):  # two-tone: a random split, horizontal or vertical
        h, w = (int(v) for v in rng.integers(1, 140, 2))
        img = np.broadcast_to(rng.integers(0, 256, 3, dtype=np.uint8), (h, w, 3)).copy()
        cut = int(rng.integers(0, max(h, w)))
        if rng.random() < 0.5:
            img[cut:] = rng.integers(0, 256, 3, dtype=np.uint8)
        else:
            img[:, cut:] = rng.integers(0, 256, 3, dtype=np.uint8)
        out.append(img)
    for _ in range(100):  # noise at chart-like sizes
        h, w = (int(v) for v in rng.integers(40, 140, 2))
        out.append(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    for _ in range(100):  # float input at chart-like sizes and scales
        h, w = (int(v) for v in rng.integers(20, 140, 2))
        out.append(rng.random((h, w, 3)) * 10.0 ** int(rng.integers(-3, 10)))
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # empty blocks below 8 px
def test_phash64_matches_reference():
    moved = [i for i, px in enumerate(_images())
             if im.phash64(px) != phash64_reference(px)]
    assert moved == []


def test_synth_pixels_matches_reference():
    rng = np.random.default_rng(77)
    for _ in range(300):
        seed = int(rng.integers(0, 2 ** 32))
        w, h = int(rng.integers(7, 140)), int(rng.integers(8, 140))
        np.testing.assert_array_equal(im.synth_pixels(seed, w, h),
                                      synth_pixels_reference(seed, w, h))


@pytest.mark.parametrize("w", list(range(1, 10)) + [48, 127])
def test_lossless_encoders_match_row_by_row(w):
    pix = np.random.default_rng(w).integers(0, 256, (5, w, 3), dtype=np.uint8)
    bmp = im.encode_bmp(pix)
    (offset,) = struct.unpack_from("<I", bmp, 10)
    assert bmp[offset:] == bmp_pixel_rows_reference(pix)
    np.testing.assert_array_equal(im.decode_bmp(bmp), pix)
    png = im.encode_png(pix)
    (length,) = struct.unpack_from(">I", png, 33)  # the IDAT chunk after IHDR
    assert png[37:41] == b"IDAT"
    assert zlib.decompress(png[41: 41 + length]) == png_raw_reference(pix)
    np.testing.assert_array_equal(im.decode_png(png), pix)
