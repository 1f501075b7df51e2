"""Multimodal actor-pool stages: image resize, audio features, video
frame sampling — opaque ``binary`` columns + typed metadata.

The image path is REAL (pure-numpy area-mean resize over the engine's
own codecs).  Audio/video entropy decoders do not exist in this
container (no ffmpeg/soundfile/PIL), so their decode steps are
deterministic fakes behind ``DecodeIsStubbed`` markers — the Ray-side
plumbing (schema, batch shapes, actor signature, output layout) is real
and tested, and swapping the stub for a real decoder is a one-function
change.  This mirrors the task brief's instruction to stub the codec
and make the orchestration real.

All three are callable classes intended for
``ds.map_batches(Cls, concurrency=(n, m), batch_size=B)`` — setup in
``__init__`` (once per actor), vectorized work per batch.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..image import codecs, phash as _ph


class DecodeIsStubbed(NotImplementedError):
    """Raised by stubbed entropy decoders when strict mode is on."""


# -- image: real resize -------------------------------------------------------


def area_resize(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic area-mean resize of (h, w, 3) uint8 → (out_h, out_w, 3)."""
    h, w, _ = px.shape
    re = (np.arange(out_h + 1) * h) // out_h
    ce = (np.arange(out_w + 1) * w) // out_w
    acc = np.add.reduceat(px.astype(np.float64), re[:-1], axis=0)
    acc = np.add.reduceat(acc, ce[:-1], axis=1)
    counts = (np.diff(re)[:, None] * np.diff(ce)[None, :])[:, :, None]
    return np.clip(np.floor(acc / counts), 0, 255).astype(np.uint8)


class ImageResizeStage:
    """bytes(+fmt,w,h) → resized thumbnail bytes + per-image stats."""

    def __init__(self, out_h: int = 16, out_w: int = 16, out_fmt: str = "png"):
        self.out_h, self.out_w, self.out_fmt = out_h, out_w, out_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        hs = batch["h"].to_numpy()
        ws = batch["w"].to_numpy()
        out_bytes, means, phashes = [], [], []
        for k, buf in enumerate(bufs):
            px = codecs.decode(buf, fmts[k], int(hs[k]), int(ws[k]))
            small = area_resize(px, self.out_h, self.out_w)
            out_bytes.append(codecs.encode(small, self.out_fmt))
            means.append(float(small.mean()))
            phashes.append(_ph.dhash(small))
        return pa.table(
            {
                "image_id": batch["image_id"],
                "thumb_bytes": pa.array(out_bytes, pa.binary()),
                "thumb_w": pa.array(
                    np.full(len(bufs), self.out_w, dtype=np.int32)
                ),
                "thumb_h": pa.array(
                    np.full(len(bufs), self.out_h, dtype=np.int32)
                ),
                "thumb_fmt": pa.array([self.out_fmt] * len(bufs), pa.string()),
                "thumb_mean": pa.array(np.asarray(means)),
                "thumb_phash": pa.array(np.asarray(phashes, dtype=np.int64)),
            }
        )


class ImageResizeStageFused(ImageResizeStage):
    """ImageResizeStage with the parquet read fused into it —
    the tile payload never enters the object store (the wide-row rule,
    same pattern as ``TileGeoStageFused``)."""

    COLUMNS = ["image_id", "bytes", "w", "h", "fmt"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        tables = [
            pq.read_table(p, columns=self.COLUMNS)
            for p in batch["item"].to_pylist()
        ]
        return super().__call__(
            pa.concat_tables(tables) if len(tables) > 1 else tables[0]
        )


# -- image: integer gradient energy (edge density / texture score) -----------


def gradient_energy(px: np.ndarray) -> tuple[int, int]:
    """Total-variation edge energy of an (h, w, 3) uint8 image:
    Σ|Δrow| + Σ|Δcol| of the integer channel sum — pure int64 math, so
    distributed county rollups hash the sequential oracle exactly with
    no float lattice at all.  Returns (grad, n_px)."""
    g = px[:, :, 0].astype(np.int64)
    g += px[:, :, 1]
    g += px[:, :, 2]
    grad = int(np.abs(np.diff(g, axis=0)).sum()) + int(
        np.abs(np.diff(g, axis=1)).sum()
    )
    return grad, g.shape[0] * g.shape[1]


class ImageGradientStage:
    """bytes(+fmt,w,h) → per-image integer gradient energy (a cheap
    texture / blur / junk-image score for training-data filtering)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        hs = batch["h"].to_numpy()
        ws = batch["w"].to_numpy()
        grads = np.empty(len(bufs), dtype=np.int64)
        npx = np.empty(len(bufs), dtype=np.int64)
        for k, buf in enumerate(bufs):
            px = codecs.decode(buf, fmts[k], int(hs[k]), int(ws[k]))
            grads[k], npx[k] = gradient_energy(px)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "grad": pa.array(grads),
                "n_px": pa.array(npx),
            }
        )


class ImageGradientStageFused(ImageGradientStage):
    """ImageGradientStage with the parquet read fused into it
    (payload never enters the object store)."""

    COLUMNS = ["image_id", "bytes", "w", "h", "fmt"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        tables = [
            pq.read_table(p, columns=self.COLUMNS)
            for p in batch["item"].to_pylist()
        ]
        return super().__call__(
            pa.concat_tables(tables) if len(tables) > 1 else tables[0]
        )


# -- audio: REAL RIFF/PCM decode (stdlib wave), stub only for non-WAV --------


def _fake_pcm_decode(buf: bytes, n_samples: int = 16000) -> np.ndarray:
    """STUB decoder for NON-WAV payloads (mp3/flac/… — no codec libs in
    this container): deterministic float32 waveform seeded from the
    payload's crc32.  WAV payloads never reach this — see
    :func:`wav_decode`."""
    seed = zlib.crc32(buf)
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random(n_samples, dtype=np.float32) * 2.0 - 1.0).astype(np.float32)


def wav_decode(buf: bytes) -> tuple[np.ndarray, int, int]:
    """REAL RIFF/PCM WAV decode via the stdlib ``wave`` module:
    ``(frames[n_frames, n_channels] int16, sample_rate, n_channels)``.
    Only 16-bit PCM is accepted (the fixture's format; reference
    analog: the raster header check, src/core/image_utils_v3.py)."""
    import io
    import wave as _wave

    with _wave.open(io.BytesIO(buf), "rb") as w:
        nch = w.getnchannels()
        if w.getsampwidth() != 2:
            raise ValueError(f"expected 16-bit PCM, got {w.getsampwidth() * 8}-bit")
        sr = w.getframerate()
        n = w.getnframes()
        raw = w.readframes(n)
    frames = np.frombuffer(raw, dtype="<i2").reshape(n, nch)
    return frames, sr, nch


class AudioFeatureStage:
    """audio_bytes → (sample_rate, n_channels, duration_s, rms,
    zero_crossing_rate, peak).

    RIFF payloads decode for REAL (:func:`wav_decode`).  Features are
    defined on the exact int16 sample domain — sum of squares and peak
    in int64, one float division/sqrt at the end — so a sequential
    oracle recomputing them from the same bytes is bit-identical
    regardless of summation order.  ``strict=True`` raises
    :class:`DecodeIsStubbed` for non-RIFF payloads instead of falling
    back to the fake decoder — the flag a production deployment with
    mixed formats would flip."""

    def __init__(self, id_col: str = "aud_id", strict: bool = False):
        self.id_col = id_col
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["bytes"].to_pylist()
        n = len(bufs)
        srs = np.empty(n, dtype=np.int32)
        nchs = np.empty(n, dtype=np.int32)
        dur = np.empty(n)
        rms = np.empty(n)
        zcr = np.empty(n)
        peak = np.empty(n)
        for k, buf in enumerate(bufs):
            if buf[:4] == b"RIFF":
                frames, sr, nch = wav_decode(buf)
            elif self.strict:
                raise DecodeIsStubbed(
                    "non-WAV payload and no audio codec in this environment "
                    "(decode stub disabled by strict)"
                )
            else:
                fake = _fake_pcm_decode(buf)
                frames = np.clip(fake * 32767.0, -32768, 32767).astype(
                    np.int16
                ).reshape(-1, 1)
                sr, nch = 16000, 1
            x = frames.astype(np.int64)
            nf = frames.shape[0]
            srs[k], nchs[k] = sr, nch
            dur[k] = nf / sr
            # exact int64 sum of squares: nf*nch*32768^2 < 2^63 for any
            # clip shorter than ~2.4e8 samples
            rms[k] = float(np.sqrt(int((x * x).sum()) / (nf * nch))) / 32768.0
            ch0 = frames[:, 0]
            zcr[k] = (
                float(int(np.count_nonzero((ch0[1:] < 0) != (ch0[:-1] < 0))))
                / (nf - 1)
                if nf > 1
                else 0.0
            )
            peak[k] = int(np.abs(x).max()) / 32768.0
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "sample_rate": pa.array(srs, pa.int32()),
                "n_channels": pa.array(nchs, pa.int32()),
                "duration_s": pa.array(dur),
                "rms": pa.array(rms),
                "zero_crossing_rate": pa.array(zcr),
                "peak": pa.array(peak),
            }
        )


# -- video: REAL YUV4MPEG2 (y4m) decode, stub only for compressed formats ----


def _fake_video_decode(buf: bytes, n_frames: int = 16, h: int = 8, w: int = 8):
    """STUB decoder for NON-y4m payloads (mp4/webm/… — no codec libs in
    this container): deterministic uint8 frames seeded from the
    payload's crc32.  y4m payloads never reach this — see
    :func:`y4m_decode`."""
    seed = zlib.crc32(buf) ^ 0x5EED
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 256, (n_frames, h, w, 3), dtype=np.uint8)


_Y4M_MAGIC = b"YUV4MPEG2"


def y4m_decode(buf: bytes) -> tuple[np.ndarray, str]:
    """REAL YUV4MPEG2 container parse: ``(y_frames[n, h, w] uint8,
    colorspace)``.  y4m is the public raw-frame interchange format of
    the ffmpeg/x264 toolchain — a text stream header (``YUV4MPEG2 W..
    H.. ..``) followed by ``FRAME`` markers and raw planar YUV, no
    entropy coding — so parsing it needs no codec library.  Supports
    C444 and C420* (the two plane layouts the fixture emits); only the
    Y plane is materialized (features are luma-defined), chroma is
    skipped by offset arithmetic."""
    nl = buf.index(b"\n")
    header = buf[:nl].split(b" ")
    if header[0] != _Y4M_MAGIC:
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = None
    cs = "C420"
    for tok in header[1:]:
        if tok[:1] == b"W":
            w = int(tok[1:])
        elif tok[:1] == b"H":
            h = int(tok[1:])
        elif tok[:1] == b"C":
            cs = tok.decode()
    if not w or not h:
        raise ValueError("y4m header missing W/H")
    y_size = w * h
    chroma_size = 2 * y_size if cs.startswith("C444") else y_size // 2
    frames = []
    pos = nl + 1
    n = len(buf)
    while pos < n:
        fnl = buf.index(b"\n", pos)
        if buf[pos : pos + 5] != b"FRAME":
            raise ValueError("malformed y4m: missing FRAME marker")
        pos = fnl + 1
        frames.append(
            np.frombuffer(buf, dtype=np.uint8, count=y_size, offset=pos).reshape(
                h, w
            )
        )
        pos += y_size + chroma_size
    return np.stack(frames) if frames else np.empty((0, h, w), np.uint8), cs


class VideoFrameSampleStage:
    """video_bytes → every ``stride``-th frame's phash + brightness.

    One output row per SAMPLED FRAME (1→N explode), the layout a
    frame-level training pipeline consumes.  y4m payloads decode for
    REAL (:func:`y4m_decode`); brightness is the exact int-domain luma
    mean (int64 sum, one f64 division — order-free, so a sequential
    oracle is bit-identical) and frame_phash the Y-plane dHash (luma
    replicated across channels: ``(3Y)/3`` is exact in f64, so the
    gray plane IS Y).  ``strict=True`` raises :class:`DecodeIsStubbed`
    for non-y4m payloads instead of falling back to the fake decoder."""

    def __init__(
        self, stride: int = 4, id_col: str = "image_id", strict: bool = False
    ):
        self.stride = stride
        self.id_col = id_col
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frame_idx, phashes, bright = [], [], [], []
        # sampled y4m frames accumulate per (h, w) shape and hash/reduce
        # in ONE dhash_stack + ONE sum per group — per-clip numpy-call
        # overhead dominates a per-clip loop at ~20-frame clip lengths
        groups: dict[tuple[int, int], list] = {}
        for vid, buf in zip(
            batch[self.id_col].to_pylist(), batch["bytes"].to_pylist()
        ):
            if buf[: len(_Y4M_MAGIC)] == _Y4M_MAGIC:
                ys, _ = y4m_decode(buf)
                sampled = ys[:: self.stride]
                if len(sampled):
                    groups.setdefault(ys.shape[1:], []).append(
                        (vid, range(0, len(ys), self.stride), sampled)
                    )
                continue
            if self.strict:
                raise DecodeIsStubbed(
                    "non-y4m payload and no video codec in this environment "
                    "(decode stub disabled by strict)"
                )
            frames = _fake_video_decode(buf)
            for fi in range(0, len(frames), self.stride):
                ids.append(vid)
                frame_idx.append(fi)
                phashes.append(_ph.dhash(frames[fi]))
                bright.append(float(frames[fi].mean()))
        for (h, w), items in groups.items():
            stack_y = np.concatenate([s for _, _, s in items])
            ph = _ph.dhash_stack(np.repeat(stack_y[:, :, :, None], 3, axis=3))
            # exact int-domain brightness: int64 plane sums (order-free,
            # < 2^53) then one f64 division — bit-identical to the
            # sequential per-frame recompute
            br = stack_y.reshape(len(stack_y), -1).sum(
                axis=1, dtype=np.int64
            ) / float(h * w)
            k = 0
            for vid, sidx, s in items:
                for fi in sidx:
                    ids.append(vid)
                    frame_idx.append(fi)
                    phashes.append(int(ph[k]))
                    bright.append(br[k])
                    k += 1
        return pa.table(
            {
                "video_id": pa.array(ids),
                "frame_idx": pa.array(np.asarray(frame_idx, dtype=np.int64)),
                "frame_phash": pa.array(np.asarray(phashes, dtype=np.int64)),
                "brightness": pa.array(np.asarray(bright)),
            }
        )


