"""Every int setting goes through `errors.check_int`: a Python int at or
above its floor passes; a bool, a float, a numpy int or a value below the
floor raises the module's typed error naming the field. The cases include
`stft` with a bool size (which once returned a spectrogram), `istft(spec,
True)` (once numpy's bare TypeError), a float `count_ops` size (once
counted) and a seed of -1 (once numpy's bare ValueError, or for `SpsaConfig`
a config that failed only inside `spsa_train`)."""
import re

import numpy as np
import pytest

from lort.arrays import ConvSpec
from lort.attention import count_ops
from lort.errors import InvalidInputError, InvalidParameterError, InvalidSpecError, ShapeError
from lort.model import ModelConfig, init_discriminator, init_weights
from lort.signal import ComplexSpec, Waveform, invertible, istft, stft
from lort.verify import (SpsaConfig, gradcheck_losses, make_toy_task, micro_config,
                         taylor_error_sweep)
from lort.weights import WeightStore

WAVE = Waveform(np.ones(200))
SPEC = stft(WAVE, 64, 64, 16)
PLANE = np.zeros((4, 33))


def _stft_sizes(caller, call):
    """The three sizes (fft_len, win_len, hop) = (64, 64, 16) that `call`
    hands to signal's size check, one at a time set to the value."""
    sizes = (64, 64, 16)
    return {f"{caller}.{name}": (lambda v, i=i: call(*sizes[:i], v, *sizes[i + 1:]),
                                 name, 1, InvalidInputError)
            for i, name in enumerate(("fft_len", "win_len", "hop"))}


# site -> (call with the value in the field, field name, floor, error type)
SITES = {
    **{f"ModelConfig.{name}": (lambda v, name=name: ModelConfig(**{name: v}), name, low,
                               InvalidParameterError)
       for name, low in (("n_blocks", 1), ("channels", 2), ("fft_len", 1), ("win_len", 1),
                         ("hop", 1), ("block_channel_mult", 1))},
    "Waveform.sample_rate": (lambda v: Waveform(np.zeros(4), v), "sample_rate", 1,
                             InvalidInputError),
    **_stft_sizes("stft", lambda f, w, h: stft(WAVE, f, w, h)),
    **_stft_sizes("ComplexSpec", lambda f, w, h: ComplexSpec(PLANE, PLANE, f, w, h)),
    "invertible.win_len": (lambda v: invertible(v, 16), "win_len", 1, InvalidInputError),
    "invertible.hop": (lambda v: invertible(64, v), "hop", 1, InvalidInputError),
    "istft.out_len": (lambda v: istft(SPEC, v), "out_len", 0, InvalidInputError),
    "ConvSpec.groups": (lambda v: ConvSpec(kernel=(3, 3), groups=v), "groups", 1,
                        InvalidSpecError),
    "SpsaConfig.iterations": (lambda v: SpsaConfig(iterations=v), "iterations", 1,
                              InvalidParameterError),
    "gradcheck_losses.instances": (lambda v: gradcheck_losses(instances=v), "instances", 1,
                                   InvalidParameterError),
    "taylor_error_sweep.trials": (lambda v: taylor_error_sweep(trials=v), "trials", 1,
                                  InvalidParameterError),
    "init_weights.seed": (lambda v: init_weights(micro_config(), seed=v), "seed", 0,
                          InvalidParameterError),
    "init_discriminator.seed": (lambda v: init_discriminator(WeightStore(), seed=v), "seed", 0,
                                InvalidParameterError),
    "make_toy_task.seed": (lambda v: make_toy_task(micro_config(), seed=v), "seed", 0,
                           InvalidParameterError),
    "SpsaConfig.seed": (lambda v: SpsaConfig(seed=v), "seed", 0, InvalidParameterError),
    "gradcheck_losses.seed": (lambda v: gradcheck_losses(seed=v), "seed", 0,
                              InvalidParameterError),
    "taylor_error_sweep.seed": (lambda v: taylor_error_sweep(seed=v), "seed", 0,
                                InvalidParameterError),
    "count_ops.t": (lambda v: count_ops(v, 2, 3), "t", 1, ShapeError),
    "count_ops.f": (lambda v: count_ops(2, v, 3), "f", 1, ShapeError),
    "count_ops.d": (lambda v: count_ops(2, 3, v), "d", 1, ShapeError),
}

BAD = {"bool": lambda low: True, "float": lambda low: 2.0,
       "numpy_int": lambda low: np.int64(2), "below_floor": lambda low: low - 1}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("site", SITES)
def test_int_setting_rejects_what_is_no_int_at_its_floor(site, kind):
    call, name, low, error = SITES[site]
    value = BAD[kind](low)
    with pytest.raises(error, match=re.escape(f"{name} must be an int >= {low}, got {value!r}")):
        call(value)

