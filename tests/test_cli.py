import numpy as np
import pytest

from lort.cli import _build_parser, _cfg_from, run
from lort.model import ModelConfig
from lort.signal import Waveform, read_wav, write_wav

MICRO_ARGS = ["--n-blocks", "1", "--channels", "4",
              "--fft-len", "64", "--win-len", "64", "--hop", "16"]


def write_noise(path, n=4000, seed=0):
    wf = Waveform(0.1 * np.random.default_rng(seed).standard_normal(n))
    path.write_bytes(write_wav(wf))
    return wf


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
    noisy.write_bytes(write_wav(Waveform(np.zeros(4000), sample_rate=8000)))
    weights = tmp_path / "w.bin"
    assert run(["init-weights", "--out", str(weights)] + MICRO_ARGS) == 0
    out = tmp_path / "o.wav"
    code = run(["enhance", "--in", str(noisy), "--weights", str(weights),
                "--out", str(out)] + MICRO_ARGS)
    assert code == 2
    err = capsys.readouterr().err
    assert "8000 Hz" in err and "16000 Hz" in err
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


@pytest.mark.parametrize("argv", [
    ["enhance", "--in", "a.wav", "--weights", "w.bin", "--out", "b.wav"],
    ["losses", "--ref", "a.wav", "--est", "b.wav"],
    ["init-weights", "--out", "w.bin"],
])
def test_model_flags_default_to_the_model_config(argv):
    assert _cfg_from(_build_parser().parse_args(argv)) == ModelConfig()


def test_trend_rejects_a_negative_duration(capsys):
    assert run(["trend", "--duration", "-1"]) == 2
    assert "duration_s" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--bogus", "1"])
    assert exc.value.code != 0
