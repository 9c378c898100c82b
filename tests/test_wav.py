import struct

import numpy as np
import pytest

from efp.errors import DataError
from efp.wav import PcmClip, decode_wav, read_wav_mono, resample_linear

from conftest import MALFORMED_HEADERS, write_malformed_wav, write_wav


def test_five_second_file_yields_two_clips(tmp_path):
    path = write_wav(tmp_path / "five.wav", np.zeros(5 * 16000) + 0.25)
    clips = list(decode_wav(path, 16000))
    assert len(clips) == 2
    assert all(c.samples.shape == (32000,) for c in clips)
    assert [c.clip_id for c in clips] == ["five.wav#0", "five.wav#1"]


def test_stereo_averages_to_mono(tmp_path):
    stereo = np.stack([np.full(32000, 0.5), np.full(32000, -0.5)], axis=1)
    path = write_wav(tmp_path / "stereo.wav", stereo, dtype=np.float32)
    (clip,) = decode_wav(path, 16000)
    assert np.all(clip.samples == 0.0)


def test_three_point_nine_seconds_yields_one_clip(tmp_path):
    path = write_wav(tmp_path / "odd.wav", np.zeros(int(3.9 * 16000)) + 0.1)
    clips = list(decode_wav(path, 16000))
    assert len(clips) == 1


def test_short_file_yields_empty_stream_with_warning(tmp_path, caplog):
    path = write_wav(tmp_path / "short.wav", np.zeros(16000) + 0.1)
    with caplog.at_level("WARNING"):
        clips = list(decode_wav(path, 16000))
    assert clips == []
    assert any("shorter than" in r.message for r in caplog.records)


def test_resampling_to_target_rate(tmp_path):
    t = np.arange(2 * 8000) / 8000
    path = write_wav(tmp_path / "8k.wav", 0.5 * np.sin(2 * np.pi * 440 * t), rate=8000)
    (clip,) = decode_wav(path, 16000)
    assert clip.samples.shape == (32000,)
    assert clip.sample_rate_hz == 16000


def test_resample_preserves_constant_and_length():
    const = np.full(8000, 0.3)
    up = resample_linear(const, 8000, 16000)
    assert up.shape == (16000,)
    assert np.allclose(up, 0.3)
    ramp = np.linspace(0.0, 1.0, 44100)
    down = resample_linear(ramp, 44100, 16000)
    assert down.shape == (16000,)
    assert np.all(np.diff(down) >= 0)


def test_int16_scaling(tmp_path):
    data = np.array([-32768, 0, 16384] + [0] * 31997, dtype=np.int16)
    path = tmp_path / "i16.wav"
    write_wav(path, data, dtype=np.int16)
    samples = read_wav_mono(path, 16000)
    assert samples[0] == -1.0
    assert samples[1] == 0.0
    assert samples[2] == 0.5


def test_uint8_scaling(tmp_path):
    data = np.array([0, 128, 255] + [128] * 31997, dtype=np.uint8)
    path = tmp_path / "u8.wav"
    write_wav(path, data, dtype=np.uint8)
    samples = read_wav_mono(path, 16000)
    assert samples[0] == -1.0
    assert samples[1] == 0.0
    assert samples[2] == 127.0 / 128.0


def _write_24bit_wav(path, values, rate=16000):
    """Minimal RIFF writer for 24-bit PCM (not supported by scipy's writer)."""
    frames = b"".join(struct.pack("<i", v << 8)[1:] for v in values)
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(frames)))
        f.write(b"WAVEfmt ")
        f.write(struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24))
        f.write(b"data")
        f.write(struct.pack("<I", len(frames)))
        f.write(frames)


def test_24bit_scaling(tmp_path):
    path = tmp_path / "i24.wav"
    values = [2**22, -(2**23), 0] + [0] * 31997
    _write_24bit_wav(path, values)
    samples = read_wav_mono(path, 16000)
    assert samples[0] == 0.5
    assert samples[1] == -1.0
    assert samples[2] == 0.0


def test_float_input_is_clipped(tmp_path):
    data = np.array([1.5, -2.0] + [0.0] * 31998, dtype=np.float32)
    path = write_wav(tmp_path / "f32.wav", data, dtype=np.float32)
    samples = read_wav_mono(path, 16000)
    assert samples[0] == 1.0
    assert samples[1] == -1.0


def test_non_wav_file_raises(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"definitely not audio")
    with pytest.raises(DataError):
        list(decode_wav(path, 16000))


def test_missing_file_raises(tmp_path):
    with pytest.raises(DataError):
        list(decode_wav(tmp_path / "absent.wav", 16000))


def test_zero_length_audio_raises(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, np.zeros(0, dtype=np.int16), dtype=np.int16)
    with pytest.raises(DataError):
        list(decode_wav(path, 16000))


def test_clip_invariant_rejects_wrong_length():
    with pytest.raises(ValueError):
        PcmClip(samples=np.zeros(100), sample_rate_hz=16000, clip_id="bad")


def test_clip_invariant_rejects_non_finite():
    samples = np.zeros(32000)
    samples[7] = np.nan
    with pytest.raises(ValueError):
        PcmClip(samples=samples, sample_rate_hz=16000, clip_id="nan")


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_raises_data_error(tmp_path, case):
    path = write_malformed_wav(tmp_path / "bad.wav", case)
    with pytest.raises(DataError, match="bad.wav"):
        list(decode_wav(path, 16000))
