"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata.

IMAGE payloads have a REAL decode path: BMP (24-bit BI_RGB) and PPM
(P6) are decoded to pixel arrays with stdlib struct + numpy
(``extract/image_decode.py``), and the feature is a genuine luminance
histogram + decoded-geometry vector.  AUDIO payloads likewise: RIFF
PCM16 WAV (``extract/wav_decode.py``) and FLAC (``extract/flac.py`` —
from-scratch fixed/LPC/Rice decode) both parse into the same waveform
envelope feature.  Formats needing PIL/ffmpeg-class libraries (which
don't ship in this container) still route through ``_decode_stub`` —
lossy audio codecs, unknown containers — but everything
Ray-side is real and tested either way: schemas, pooled-actor
signatures, batch sizing for large binary rows, status routing, output
layout.  Swap ``_decode_stub`` for a real decoder and nothing else
changes.

Batch-size guidance: binary payloads make rows wide — size
``batch_size`` so ``batch_size × mean_payload × concurrency`` fits the
worker heap (SURVEY.md §4.2 skew row), and keep these stages in
``batch_format="pyarrow"`` (binary round-trips pandas as object dtype).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from valere_ocr_ray.ops.hashing import md5_upper

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("url", pa.string()),
        ("media_type", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)

FEATURE_DIM = 32


def _decode_stub(payload: bytes, media_type: str) -> np.ndarray:
    """Deterministic fake 'decode → feature' kernel.

    Real implementation would decode pixels/samples and run a feature
    extractor; none of those libraries exist here, so the feature is a
    seeded byte-histogram projection — deterministic, shape-stable,
    and cheap, which is what the plumbing tests need.
    """
    if media_type not in ("image", "audio", "video"):
        raise NotImplementedError(f"no decoder for media_type={media_type!r}")
    hist = np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256)
    seed = int(md5_upper([media_type])[0]) & 0xFFFFFFFF
    proj = np.random.default_rng(seed).standard_normal((256, FEATURE_DIM))
    return (hist.astype(np.float32) @ proj.astype(np.float32)) / max(len(payload), 1)


class MediaFeatureExtractor:
    """Actor-pool stage: payload binary → fixed-dim feature vector.

    ``__init__`` is where a real model would load (once per actor);
    ``__call__`` handles a batch, routing per-row failures to
    ``status='error_decode'`` instead of failing the task.
    """

    def __init__(self, feature_dim: int = FEATURE_DIM) -> None:
        self.feature_dim = feature_dim  # real impl: load model weights here

    def __call__(self, batch: pa.Table) -> pa.Table:
        from valere_ocr_ray.extract.image_decode import (
            ImageFormatError,
            decode_image,
            image_feature,
            sniff_image_format,
        )

        from valere_ocr_ray.extract.flac import decode_flac, sniff_flac
        from valere_ocr_ray.extract.wav_decode import (
            audio_feature,
            decode_wav,
            sniff_wav,
        )

        payloads = batch["payload"]
        types = batch["media_type"].to_pylist()
        feats: list[list[float] | None] = []
        status: list[str] = []
        dec_w: list[int] = []
        dec_h: list[int] = []
        for i, mt in enumerate(types):
            try:
                buf = payloads[i].as_buffer().to_pybytes()
                if mt == "image" and sniff_image_format(buf) is not None:
                    # REAL decode path: header parse → pixels → feature
                    pixels = decode_image(buf)
                    feats.append(image_feature(pixels, self.feature_dim).tolist())
                    dec_h.append(pixels.shape[0])
                    dec_w.append(pixels.shape[1])
                    status.append("ok")
                elif mt == "audio" and (sniff_wav(buf) or sniff_flac(buf)):
                    # REAL audio path: RIFF/PCM16 or FLAC → waveform feature
                    samples, rate = (
                        decode_wav(buf) if sniff_wav(buf) else decode_flac(buf)
                    )
                    feats.append(
                        audio_feature(samples, rate, self.feature_dim).tolist()
                    )
                    dec_w.append(len(samples))  # decoded sample count
                    dec_h.append(rate)
                    status.append("ok")
                else:
                    feats.append(_decode_stub(buf, mt).tolist())
                    dec_w.append(0)
                    dec_h.append(0)
                    status.append("ok")
            except NotImplementedError:
                # length-0 feature, not null: Ray's pandas TensorArray
                # cast rejects nulls in an otherwise fixed-length list
                # column; an empty list keeps the Arrow schema AND
                # degrades to a ragged (object) pandas column
                feats.append([])
                dec_w.append(0)
                dec_h.append(0)
                status.append("error_no_decoder")
            except Exception:  # incl. ImageFormatError: corrupt payloads
                feats.append([])
                dec_w.append(0)
                dec_h.append(0)
                status.append("error_decode")
        out = batch.drop_columns(["payload"])  # payload bytes stop here
        return (
            out.append_column("feature", pa.array(feats, pa.list_(pa.float32())))
            .append_column("decoded_w", pa.array(dec_w, pa.int32()))
            .append_column("decoded_h", pa.array(dec_h, pa.int32()))
            .append_column("status", pa.array(status, pa.string()))
        )


def extract_media_features(
    ds: ray.data.Dataset, *, concurrency=(1, 4)
) -> ray.data.Dataset:
    """Feature-extract a media table; small (32-row) batches because
    rows are payload-wide (see module docstring)."""
    return ds.map_batches(
        MediaFeatureExtractor,
        batch_format="pyarrow",
        batch_size=32,
        concurrency=concurrency,
        num_cpus=1,
    )


def sample_gif_frames(
    ds: ray.data.Dataset,
    *,
    every_n: int = 2,
    max_frames: int = 8,
    batch_size: int = 16,
) -> ray.data.Dataset:
    """REAL frame sampling for animated-GIF video payloads: decode the
    composed frame sequence (``extract/gif.decode_gif_frames`` —
    GIF89a composition with placement/transparency/disposal), keep
    every ``every_n``-th frame up to ``max_frames``, and emit ONE ROW
    PER SAMPLED FRAME with the frame re-encoded as BMP — the layout
    downstream per-frame feature stage already consumes.
    Non-GIF payloads pass through as a single ``skipped_no_decoder``
    row (the ffmpeg-class seam); corrupt GIFs route to
    ``error_decode``.  Rows are never dropped.

    Scale shape: pure flat-map — no shuffle, no driver state; frames
    multiply bytes by ≤ ``max_frames``, so ``batch_size`` stays small
    like every payload-wide stage (module docstring)."""

    def run(batch: pa.Table) -> pa.Table:
        from valere_ocr_ray.extract.gif import decode_gif_frames, sniff_gif
        from valere_ocr_ray.extract.image_decode import encode_bmp

        payloads = batch["payload"]
        ids = batch["media_id"].to_pylist()
        urls = batch["url"].to_pylist()
        types = batch["media_type"].to_pylist()
        out = {
            "media_id": [],
            "url": [],
            "media_type": [],
            "frame_index": [],
            "n_frames": [],
            "payload": [],
            "status": [],
        }

        def emit(i, frame_index, n_frames, payload, status):
            out["media_id"].append(ids[i])
            out["url"].append(urls[i])
            out["media_type"].append(types[i])
            out["frame_index"].append(frame_index)
            out["n_frames"].append(n_frames)
            out["payload"].append(payload)
            out["status"].append(status)

        for i in range(len(batch)):
            buf = payloads[i].as_buffer().to_pybytes()
            if not sniff_gif(buf):
                emit(i, -1, 0, buf, "skipped_no_decoder")
                continue
            try:
                frames = decode_gif_frames(buf)
            except Exception:
                emit(i, -1, 0, buf, "error_decode")
                continue
            picks = list(range(0, len(frames), max(1, every_n)))[:max_frames]
            for k in picks:
                emit(i, k, len(frames), encode_bmp(frames[k]), "ok")
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.int64()),
                "url": pa.array(out["url"], pa.string()),
                "media_type": pa.array(out["media_type"], pa.string()),
                "frame_index": pa.array(out["frame_index"], pa.int32()),
                "n_frames": pa.array(out["n_frames"], pa.int32()),
                "payload": pa.array(out["payload"], pa.binary()),
                "status": pa.array(out["status"], pa.string()),
            }
        )

    return ds.map_batches(run, batch_format="pyarrow", batch_size=batch_size)


def synth_media_table(n: int) -> pa.Table:
    """Deterministic fake media corpus for plumbing tests.

    Image rows carry REAL encoded payloads (alternating BMP / PPM with
    a seeded gradient+noise pattern) and audio rows REAL RIFF/PCM16 WAV
    (seeded sine + noise), so both decode paths exercise genuine header
    parse + sample reads; video payloads stay opaque bytes for the
    stub path."""
    from valere_ocr_ray.extract.image_decode import encode_bmp

    rows = {k.name: [] for k in MEDIA_SCHEMA}
    for i in range(n):
        key = f"media:42:{i}".encode()
        row_seed = int(md5_upper([key])[0]) & 0xFFFFFFFF
        mt = ["image", "audio", "video", "weird"][i % 4 if i % 17 == 0 else i % 3]
        if mt == "image":
            w, h = 8 + i % 24, 6 + (i * 3) % 20
            rng = np.random.default_rng(row_seed)
            grad = np.linspace(0, 255, w, dtype=np.float32)[None, :, None]
            px = (
                (grad + rng.integers(0, 64, (h, w, 3))).clip(0, 255).astype(np.uint8)
            )
            if i % 2:
                payload = b"P6\n# synth\n%d %d\n255\n" % (w, h) + px.tobytes()
            else:
                payload = encode_bmp(px)
        elif mt == "audio":
            # REAL audio payloads: seeded sine + noise, alternating the
            # WAV and FLAC containers (same float surface out of both)
            from valere_ocr_ray.extract.flac import encode_flac
            from valere_ocr_ray.extract.wav_decode import encode_wav

            rng = np.random.default_rng(row_seed)
            rate = 8000
            n_s = 400 + (i * 97) % 2000
            t = np.arange(n_s, dtype=np.float32) / rate
            freq = 110.0 * (1 + i % 8)
            wave = 0.6 * np.sin(2 * np.pi * freq * t) + 0.1 * rng.standard_normal(
                n_s
            ).astype(np.float32)
            if (i // 3) % 2:
                pcm = np.clip(
                    np.round(wave * 32767.0), -32768, 32767
                ).astype(np.int64)
                payload = encode_flac(
                    pcm, rate, block_size=1024,
                    stereo_mode="independent",
                    as_lpc=bool(i % 2),
                )
            else:
                payload = encode_wav(wave, rate)
            w = h = 0
        elif mt == "video":
            # REAL animated-GIF payloads: a seeded square marching
            # across a dark canvas (shared tiny palette), so the
            # frame-sample stage decodes genuine multi-frame content
            from valere_ocr_ray.extract.gif import encode_gif_frames

            rng = np.random.default_rng(row_seed)
            w, h = 24, 18
            fg = rng.integers(64, 256, 3).astype(np.uint8)
            frames = []
            for k in range(3 + i % 5):
                f = np.zeros((h, w, 3), dtype=np.uint8)
                x0 = (2 + 3 * k) % (w - 4)
                f[4:10, x0 : x0 + 4] = fg
                frames.append(f)
            payload = encode_gif_frames(frames)
            w = h = 0
        else:
            w = h = 0
            d = hashlib.md5(key).digest()
            payload = (d * (8 + i % 23))[: 64 + (i * 37) % 512]
        rows["media_id"].append(i)
        rows["url"].append(f"https://media{i % 11}.example/{mt}/{i:06d}")
        rows["media_type"].append(mt)
        rows["payload"].append(payload)
        rows["width"].append(w)
        rows["height"].append(h)
        rows["duration_ms"].append(0 if mt == "image" else 1000 + (i * 131) % 60000)
    return pa.table(rows, schema=MEDIA_SCHEMA)
