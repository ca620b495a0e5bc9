import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lort
from lort.cli import _build_parser, _cfg_from, run
from lort.model import ModelConfig
from lort.signal import Waveform, read_wav, write_wav
from lort.weights import WeightStore

MICRO_ARGS = ["--n-blocks", "1", "--channels", "4",
              "--fft-len", "64", "--win-len", "64", "--hop", "16"]


def write_noise(path, n=4000, seed=0):
    wf = Waveform(0.1 * np.random.default_rng(seed).standard_normal(n))
    path.write_bytes(write_wav(wf))
    return wf


def wav_at_8khz(n=4000) -> bytes:
    """A PCM16 WAV of `n` zeros whose header says 8 kHz (a Waveform holds
    only 16 kHz, so the rate and byte rate are patched into the header)."""
    data = bytearray(write_wav(Waveform(np.zeros(n))))
    data[24:32] = struct.pack("<II", 8000, 16000)  # nSamplesPerSec, nAvgBytesPerSec
    return bytes(data)


def test_gradcheck_reports_small_error(capsys):
    assert run(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    err = float(out.split("max_rel_err=")[1].split()[0])
    assert err <= 1e-4


def test_sweep_emits_csv_with_slope(capsys):
    assert run(["sweep", "--trials", "3", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scale,max_err"
    assert len(lines) == 5 and lines[-1].startswith("slope,")
    assert 1.7 <= float(lines[-1].split(",")[1]) <= 2.3


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_sweep_rejects_a_count_without_trials(trials, capsys):
    assert run(["sweep", "--trials", trials]) == 2
    assert "trials must be an int >= 1" in capsys.readouterr().err


def test_sweep_rejects_a_single_scale(capsys):
    # one point fits no slope
    assert run(["sweep", "--scales", "0.1"]) == 2
    assert "scales must be two or more finite" in capsys.readouterr().err


@pytest.mark.parametrize("scales, item", [("abc", "'abc'"), ("1e-1,,1e-2", "''")])
def test_sweep_names_the_scale_it_cannot_read(scales, item, capsys):
    assert run(["sweep", "--scales", scales]) == 2
    captured = capsys.readouterr()
    assert f"scales must be numbers, got item {item}" in captured.err
    assert captured.out == ""


def test_an_untyped_error_is_not_reported_as_a_cli_error(monkeypatch):
    # only LortError and OSError are expected failures; a bug's ValueError surfaces
    def broken(args):
        raise ValueError("a bug")

    monkeypatch.setitem(lort.cli._COMMANDS, "gradcheck", broken)
    with pytest.raises(ValueError, match="a bug"):
        run(["gradcheck"])


def test_train_toy_rejects_a_nan_step(capsys):
    assert run(["train-toy", "--iterations", "2", "--step", "nan"]) == 2
    assert "a must be finite" in capsys.readouterr().err


def test_module_entry_point_runs_the_cli():
    # `python -m lort.cli` runs the CLI as the `lort` script does
    env = dict(os.environ, PYTHONPATH=str(Path(lort.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "lort.cli", "sweep", "--trials", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "trials" in proc.stderr


def test_init_weights_then_enhance_roundtrip(tmp_path, capsys):
    noisy = tmp_path / "noisy.wav"
    write_noise(noisy)
    weights = tmp_path / "w.bin"
    out = tmp_path / "out.wav"
    assert run(["init-weights", "--out", str(weights), "--seed", "1"] + MICRO_ARGS) == 0
    assert run(["enhance", "--in", str(noisy), "--weights", str(weights),
                "--out", str(out)] + MICRO_ARGS) == 0
    enhanced = read_wav(out.read_bytes())
    assert len(enhanced) == 4000


def test_init_weights_writes_only_the_generator(tmp_path, capsys):
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights)]) == 0  # the reference config
    names = list(WeightStore.load(str(weights)))
    assert names == lort.build_model(ModelConfig()).param_names() and len(names) == 349
    assert capsys.readouterr().out.endswith(": 349 tensors, 987345 parameters\n")


def test_losses_identity_is_zero(tmp_path, capsys):
    wav = tmp_path / "x.wav"
    write_noise(wav, seed=2)
    assert run(["losses", "--ref", str(wav), "--est", str(wav)] + MICRO_ARGS) == 0
    out = capsys.readouterr().out
    for key in ("l_ri=0 ", "l_mag=0 ", "l_pha=0 "):
        assert key in out


def test_train_toy_emits_trajectory(capsys):
    assert run(["train-toy", "--iterations", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "iteration,total"
    assert len(lines) == 4 and lines[-1].startswith("ratio,")


def test_missing_input_file_exits_nonzero(tmp_path, capsys):
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights), "--seed", "0"] + MICRO_ARGS) == 0
    code = run(["enhance", "--in", str(tmp_path / "absent.wav"),
                "--weights", str(weights), "--out", str(tmp_path / "o.wav")] + MICRO_ARGS)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_malformed_weights_exit_nonzero(tmp_path, capsys):
    noisy = tmp_path / "noisy.wav"
    write_noise(noisy)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a weight file")
    code = run(["enhance", "--in", str(noisy), "--weights", str(bad),
                "--out", str(tmp_path / "o.wav")] + MICRO_ARGS)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_enhance_rejects_other_sample_rate(tmp_path, capsys):
    noisy = tmp_path / "noisy8k.wav"
    noisy.write_bytes(wav_at_8khz())
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights)] + MICRO_ARGS) == 0
    out = tmp_path / "o.wav"
    code = run(["enhance", "--in", str(noisy), "--weights", str(weights),
                "--out", str(out)] + MICRO_ARGS)
    assert code == 2
    err = capsys.readouterr().err
    assert "8000 Hz" in err and "16000 Hz" in err
    assert not out.exists()


def test_losses_rejects_other_sample_rate(tmp_path, capsys):
    wav = tmp_path / "x8k.wav"
    wav.write_bytes(wav_at_8khz())
    assert run(["losses", "--ref", str(wav), "--est", str(wav)] + MICRO_ARGS) == 2
    captured = capsys.readouterr()
    assert "8000 Hz" in captured.err and "16000 Hz" in captured.err
    assert captured.out == ""


def test_enhance_rejects_non_finite_weights(tmp_path, capsys):
    noisy = tmp_path / "noisy.wav"
    write_noise(noisy)
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights)] + MICRO_ARGS) == 0
    ws = WeightStore.load(str(weights))
    ws["encoder.down_f.b"] = np.full(ws["encoder.down_f.b"].shape, np.inf)
    ws.save(str(weights))
    out = tmp_path / "o.wav"
    code = run(["enhance", "--in", str(noisy), "--weights", str(weights),
                "--out", str(out)] + MICRO_ARGS)
    assert code == 2
    assert "'encoder.down_f.b'" in capsys.readouterr().err
    assert not out.exists()


def test_enhance_rejects_weights_of_another_config(tmp_path, capsys):
    noisy = tmp_path / "noisy.wav"
    write_noise(noisy)
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights)]) == 0  # channels 16
    out = tmp_path / "o.wav"
    code = run(["enhance", "--in", str(noisy), "--weights", str(weights),
                "--out", str(out), "--channels", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "'encoder.in_conv.w'" in err and "(16, 2, 1, 1)" in err and "(4, 2, 1, 1)" in err
    assert not out.exists()


def test_enhance_rejects_tensors_of_other_blocks(tmp_path, capsys):
    noisy = tmp_path / "noisy.wav"
    write_noise(noisy)
    weights = tmp_path / "w.bin"
    two_blocks = ["--n-blocks", "2"] + MICRO_ARGS[2:]
    assert run(["init-weights", "--out", str(weights)] + two_blocks) == 0
    out = tmp_path / "o.wav"
    code = run(["enhance", "--in", str(noisy), "--weights", str(weights),
                "--out", str(out)] + MICRO_ARGS)
    assert code == 2
    assert "'block1." in capsys.readouterr().err
    assert not out.exists()


def test_init_weights_rejects_a_config_no_forward_can_run(tmp_path, capsys):
    weights = tmp_path / "w.bin"
    code = run(["init-weights", "--out", str(weights), "--fft-len", "16", "--win-len", "31",
                "--hop", "16", "--channels", "4", "--n-blocks", "1"])
    assert code == 2
    assert "win_len=31" in capsys.readouterr().err
    assert not weights.exists()


def test_init_weights_rejects_a_negative_seed(tmp_path, capsys):
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights), "--seed", "-1"] + MICRO_ARGS) == 2
    assert "seed must be an int >= 0, got -1" in capsys.readouterr().err
    assert not weights.exists()


@pytest.mark.parametrize("argv", [
    ["enhance", "--in", "a.wav", "--weights", "w.bin", "--out", "b.wav"],
    ["losses", "--ref", "a.wav", "--est", "b.wav"],
    ["init-weights", "--out", "w.bin"],
])
def test_model_flags_default_to_the_model_config(argv):
    assert _cfg_from(_build_parser().parse_args(argv)) == ModelConfig()


def test_trend_rejects_a_negative_duration(capsys):
    # the rows are computed before the header prints, so a rejected run writes nothing;
    # 0 s and 0.01 s (160 samples) hold no more samples than stft's 255-sample padding
    for duration in ("-1", "nan", "inf", "0", "0.01"):
        assert run(["trend", "--duration", duration]) == 2
        captured = capsys.readouterr()
        assert "duration_s" in captured.err, duration
        assert captured.out == "", duration


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--bogus", "1"])
    assert exc.value.code != 0
