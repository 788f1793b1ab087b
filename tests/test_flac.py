"""FLAC codec: round-trips across every decode path the twin can
drive (all four stereo modes, fixed + LPC subframes, Rice + escape
residuals, wasted bits, odd block splits), CRC/MD5 integrity rejection,
the float mono surface shared with WAV, and the multimodal audio-stage
wiring.

No audio library exists in this container (unlike libtiff/libwebp for
the image codecs), so there is no external cross-pin; the compensating
teeth are the stream-level CRC-8/CRC-16/MD5 checks the decoder enforces
on every frame — a twin bug that altered bytes would break its own
checksums unless encoder and decoder shared the same misreading of the
spec, which the hand-computed-layout tests below guard against.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import bit_flip_fuzz

from valere_ocr_ray.extract.flac import (
    FlacFormatError,
    decode_flac,
    decode_flac_pcm,
    encode_flac,
    sniff_flac,
)


def _sig(n: int, ch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = 9000 * np.sin(2 * np.pi * 440 * t / 16000)
    out = np.stack(
        [
            np.round(base * (1 - 0.2 * c) + rng.integers(-500, 500, n))
            for c in range(ch)
        ],
        axis=1,
    ).astype(np.int64)
    return np.clip(out, -32768, 32767)


@pytest.mark.parametrize("mode", ["independent", "left_side", "right_side", "mid_side"])
@pytest.mark.parametrize("as_lpc", [False, True])
def test_stereo_modes_round_trip(mode, as_lpc):
    pcm = _sig(7000, 2, 3)
    enc = encode_flac(pcm, 16000, stereo_mode=mode, as_lpc=as_lpc, block_size=2048)
    assert sniff_flac(enc)
    back, rate, bps = decode_flac_pcm(enc)
    assert (rate, bps) == (16000, 16)
    assert (back == pcm).all()


def test_mono_multi_frame_and_tail():
    for n in (1, 191, 192, 4096, 4097, 9999):
        pcm = _sig(n, 1, n)[:, 0]
        back, rate, _ = decode_flac_pcm(encode_flac(pcm, 8000, block_size=192))
        assert back.shape == (n, 1) and (back[:, 0] == pcm).all()


def test_escape_and_wasted_bits():
    pcm = _sig(3000, 2, 9)
    enc = encode_flac(pcm, 44100, escape=True)
    assert (decode_flac_pcm(enc)[0] == pcm).all()
    pw = (pcm >> 4) << 4
    enc = encode_flac(pw, 44100, wasted=4)
    assert (decode_flac_pcm(enc)[0] == pw).all()
    with pytest.raises(FlacFormatError):
        encode_flac(pcm | 1, 44100, wasted=1)  # odd samples can't shed a bit


def test_noise_is_stored_losslessly():
    rng = np.random.default_rng(11)
    pcm = rng.integers(-32768, 32768, (5000, 2)).astype(np.int64)
    enc = encode_flac(pcm, 48000, stereo_mode="mid_side", escape=False)
    assert (decode_flac_pcm(enc)[0] == pcm).all()


def test_compresses_smooth_signal():
    pcm = _sig(16000, 1, 5)[:, 0]
    enc = encode_flac(pcm, 16000)
    assert len(enc) < 2 * len(pcm) * 0.8  # beats raw PCM16 comfortably


def test_integrity_checks_catch_corruption():
    pcm = _sig(4000, 1, 7)[:, 0]
    enc = bytearray(encode_flac(pcm, 16000))
    # flip a bit mid-stream: one of CRC-8 / CRC-16 / MD5 must fire
    flipped = enc.copy()
    flipped[len(enc) // 2] ^= 0x10
    with pytest.raises(FlacFormatError):
        decode_flac_pcm(bytes(flipped))
    with pytest.raises(FlacFormatError):
        decode_flac_pcm(b"fLaC" + b"\x00" * 8)  # truncated metadata
    with pytest.raises(FlacFormatError):
        decode_flac_pcm(b"RIFF1234")  # not FLAC


def test_header_layout_hand_check():
    """Pin the twin's byte layout against hand-computed spec fields so
    encoder and decoder cannot share a misreading: magic, STREAMINFO
    rate/channels/bps/total, and the first frame's sync + CRC-8."""
    pcm = np.arange(-100, 100, dtype=np.int64)  # 200 samples
    enc = encode_flac(pcm, 16000, block_size=192)
    assert enc[:4] == b"fLaC"
    assert enc[4] == 0x80  # last-metadata-block flag + STREAMINFO type 0
    assert int.from_bytes(enc[5:8], "big") == 34
    body = enc[8 : 8 + 34]
    assert int.from_bytes(body[0:2], "big") == 192  # min block size
    assert int.from_bytes(body[2:4], "big") == 192  # max block size
    # 20-bit rate, 3-bit channels-1, 5-bit bps-1, 36-bit total: bytes 10-17
    packed = int.from_bytes(body[10:18], "big")
    assert packed >> 44 == 16000
    assert (packed >> 41) & 7 == 0  # mono
    assert (packed >> 36) & 31 == 15  # 16 bps
    assert packed & ((1 << 36) - 1) == 200
    # first frame: sync 0b11111111111110 → bytes 0xFF 0xF8 (fixed strategy)
    frame = enc[8 + 34 :]
    assert frame[0] == 0xFF and frame[1] == 0xF8
    # block size code for 192 is 1, rate code for 16000 is 5 → byte 2
    assert frame[2] == (1 << 4) | 5
    # channel 0 / sample-size code 4 (16) / reserved 0 → byte 3
    assert frame[3] == (0 << 4) | (4 << 1)
    # frame number 0 (1-byte UTF-8), then CRC-8 over the 5 header bytes
    assert frame[4] == 0
    from valere_ocr_ray.extract.flac import _crc8

    assert frame[5] == _crc8(bytes(frame[:5]))


def test_float_surface_matches_wav_contract():
    """decode_flac exposes the same (mono float32 [-1,1], rate) surface
    as decode_wav, and the two containers agree on the same signal."""
    from valere_ocr_ray.extract.wav_decode import decode_wav, encode_wav

    rng = np.random.default_rng(13)
    wave = (0.5 * np.sin(2 * np.pi * 220 * np.arange(2000) / 8000)).astype(
        np.float32
    ) + 0.05 * rng.standard_normal(2000).astype(np.float32)
    wav_bytes = encode_wav(wave, 8000)
    w_samples, w_rate = decode_wav(wav_bytes)
    pcm = np.clip(np.round(wave * 32767.0), -32768, 32767).astype(np.int64)
    f_samples, f_rate = decode_flac(encode_flac(pcm, 8000))
    assert w_rate == f_rate == 8000
    assert f_samples.dtype == np.float32 and f_samples.shape == w_samples.shape
    # both containers carry the same int16 grid; scale conventions are
    # 32767 (wav twin) vs 32768 (flac) — agree within one LSB
    assert np.abs(f_samples - w_samples).max() <= 1.5 / 32767


def test_flac_rows_flow_through_media_stage(ray_session):
    """synth_media_table rotates WAV/FLAC audio payloads; every audio
    row must decode (status ok, decoded sample count > 0) through the
    actor-pool feature stage."""
    import ray.data as rd

    from valere_ocr_ray.ops.multimodal import (
        extract_media_features,
        synth_media_table,
    )

    t = synth_media_table(60)
    out = extract_media_features(rd.from_arrow(t), concurrency=2).to_pandas()
    audio = out[out["media_type"] == "audio"]
    assert len(audio) >= 10
    assert (audio["status"] == "ok").all()
    assert (audio["decoded_w"] > 0).all()  # decoded sample counts
    assert (audio["decoded_h"] == 8000).all()  # sample rate rides along


def test_escape_width_covers_order2_extremes():
    """An order-2 fixed-predictor residual can need bps+2 bits; the
    escape width must grow to cover it instead of wrapping under the
    write mask (ADVICE r4).  Ramp (d2 == 0 ⇒ order 2 wins on residual
    mass) plus one full-swing spike (|d2| ≈ 2^(bps+1))."""
    n = 1024
    pcm = (np.arange(n, dtype=np.int64) - 32768).clip(-32768, 32767)
    pcm[500] = 32767  # spike: d2 at the spike ≈ -125534 → needs 18 bits
    enc = encode_flac(pcm, 16000, escape=True, block_size=n)
    back, rate, _ = decode_flac_pcm(enc)
    assert (back[:, 0] == pcm).all()


def test_bit_flip_fuzz_raises_only_flac_format_error():
    """200 seeded 1-4 bit-flip mutants of a 2,000-sample mono stream in
    512-sample frames: each decodes or raises FlacFormatError within
    1 s."""
    t = np.arange(2000)
    pcm = np.round(9000 * np.sin(2 * np.pi * 440 * t / 8000)).astype(np.int64)
    good = encode_flac(pcm, 8000, block_size=512)
    assert bit_flip_fuzz(good, decode_flac, FlacFormatError) > 0
