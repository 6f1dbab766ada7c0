"""Sampled-signal containers, inner products and file I/O.

Signals live on a unit-spaced sample grid and the discrete sum stands in
for the continuum integral (no quadrature weights), so norms and inner
products of well-resolved functions match their continuum values.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

PSNR_CAP = 999.0

_RAW_MAGIC = b"GPSB"
_RAW_HEADER = struct.Struct("<4sIII")  # magic, ndim, dims[2]


class SignalBuffer:
    """A sampled 1-D signal or 2-D image with L2 structure.

    Samples are 64-bit floats, finite by construction. The underlying
    array is marked read-only; operations allocate new buffers.
    """

    __slots__ = ("data", "peak_hint")

    def __init__(self, data, peak_hint: float | None = None):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if arr.ndim not in (1, 2):
            raise ValueError(f"expected 1-D or 2-D samples, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ValueError("signal has no samples")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self.data = arr
        self.peak_hint = peak_hint

    @classmethod
    def zeros(cls, shape) -> "SignalBuffer":
        return cls(np.zeros(shape))

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def energy(self) -> float:
        flat = self.data.ravel()
        return float(np.dot(flat, flat))

    def __repr__(self):
        return f"SignalBuffer(shape={self.shape}, norm={self.norm():.6g})"


def inner_product(u: SignalBuffer, v: SignalBuffer) -> float:
    """Discrete L2 scalar product; requires identical shapes."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u.data.ravel(), v.data.ravel()))


def psnr(reference: SignalBuffer, approx: SignalBuffer) -> float:
    """Peak signal-to-noise ratio in dB, capped at PSNR_CAP.

    The peak is the reference's peak hint (the file's maxval for
    PGM-loaded images) and otherwise max|reference|.
    """
    if reference.shape != approx.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {approx.shape}")
    peak = reference.peak_hint
    if peak is None:
        peak = float(np.max(np.abs(reference.data)))
    if not peak > 0:
        raise ValueError("peak must be positive")
    diff = reference.data - approx.data
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(peak * peak / mse))


def save_signal(buf: SignalBuffer, path) -> None:
    """Write a buffer as csv (.csv suffix), pgm-p5 (.pgm) or raw-f64-le (any other)."""
    path = Path(path)
    write, _ = _FORMATS.get(path.suffix.lower(), _RAW_F64_LE)
    write(buf, path)


def load_signal(path) -> SignalBuffer:
    """Read a buffer in the format its suffix names, as `save_signal` writes it.
    Each format's reader returns (samples, peak hint); every refusal, the
    reader's or `SignalBuffer`'s, is a ValueError naming the file."""
    path = Path(path)
    _, load = _FORMATS.get(path.suffix.lower(), _RAW_F64_LE)
    samples, peak_hint = load(path)
    try:
        return SignalBuffer(samples, peak_hint)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _save_raw(buf: SignalBuffer, path: Path) -> None:
    dims = buf.shape + (1,) * (2 - buf.ndim)
    if max(dims) >= 2**32:
        raise ValueError("dimension overflow: dims must fit in u32")
    header = _RAW_HEADER.pack(_RAW_MAGIC, buf.ndim, dims[0], dims[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(buf.data.astype("<f8").tobytes(order="C"))


def _load_raw(path: Path) -> tuple:
    blob = Path(path).read_bytes()
    if len(blob) < _RAW_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, ndim, d0, d1 = _RAW_HEADER.unpack_from(blob)
    if magic != _RAW_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if ndim not in (1, 2) or d0 == 0 or (ndim == 2 and d1 == 0):
        raise ValueError(f"{path}: malformed dimensions ndim={ndim} dims=({d0},{d1})")
    shape = (d0,) if ndim == 1 else (d0, d1)
    count = math.prod(shape)
    payload = blob[_RAW_HEADER.size:]
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: payload size {len(payload)} != 8*{count}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape), None


def _save_csv(buf: SignalBuffer, path: Path) -> None:
    if buf.ndim == 2 and buf.shape[0] == 1:
        # one CSV row reads back as a 1-D signal
        raise ValueError(f"a {buf.shape} image cannot round-trip through CSV; "
                         "save it as raw-f64-le, which keeps the shape")
    rows = buf.data if buf.ndim == 2 else buf.data[None, :]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row))
            fh.write("\n")


def _load_csv(path: Path) -> tuple:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}: bad CSV row: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged CSV rows (widths {sorted(widths)})")
    arr = np.array(rows)
    return (arr[0] if len(rows) == 1 else arr), None


def _save_pgm(buf: SignalBuffer, path: Path) -> None:
    if buf.ndim != 2:
        raise ValueError("PGM output requires a 2-D buffer")
    # Quantizes to 8-bit; lossy for non-integer or out-of-range data.
    pixels = np.clip(np.rint(buf.data), 0, 255).astype(np.uint8)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))


def _load_pgm(path: Path) -> tuple:
    blob = Path(path).read_bytes()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5)")
    # Header: magic, width, height, maxval; '#' comments allowed between tokens.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: malformed PGM header")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"{path}: non-numeric PGM header fields") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    payload = blob[pos:pos + width * height]
    if len(payload) != width * height:
        raise ValueError(f"{path}: truncated PGM payload")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if arr.max() > maxval:
        raise ValueError(f"{path}: pixel value {arr.max()} exceeds maxval {maxval}")
    return arr.astype(np.float64), float(maxval)


# lowercased suffix -> (writer, reader); any other suffix is raw-f64-le
_FORMATS = {".csv": (_save_csv, _load_csv), ".pgm": (_save_pgm, _load_pgm)}
_RAW_F64_LE = (_save_raw, _load_raw)
