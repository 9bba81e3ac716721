"""Trace pins: the sha256 of the CSV trace of every model under every
duration policy and two seeds, recorded before a change and held after
it.  A change that is meant to keep traces byte-identical must keep
every pin; a pin that moves names the model, policy and seed to diff."""

import hashlib

import pytest

from conftest import MODELS_DIR
from rtabs import load_model, simulate
from rtabs.trace import render_csv

LIMIT = 600

PINS = {
    ("media_server_adaptive_high", "worst", 0): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_adaptive_high", "worst", 7): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_adaptive_high", "best", 0): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_adaptive_high", "best", 7): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_adaptive_high", "uniform", 0): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_adaptive_high", "uniform", 7): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_adaptive_low", "worst", 0): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_adaptive_low", "worst", 7): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_adaptive_low", "best", 0): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_adaptive_low", "best", 7): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_adaptive_low", "uniform", 0): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_adaptive_low", "uniform", 7): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_edf", "worst", 0): "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d",
    ("media_server_edf", "worst", 7): "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d",
    ("media_server_edf", "best", 0): "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d",
    ("media_server_edf", "best", 7): "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d",
    ("media_server_edf", "uniform", 0): "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d",
    ("media_server_edf", "uniform", 7): "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d",
    ("media_server_fifo", "worst", 0): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_fifo", "worst", 7): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_fifo", "best", 0): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_fifo", "best", 7): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_fifo", "uniform", 0): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_fifo", "uniform", 7): "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642",
    ("media_server_sjf", "worst", 0): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_sjf", "worst", 7): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_sjf", "best", 0): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_sjf", "best", 7): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_sjf", "uniform", 0): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("media_server_sjf", "uniform", 7): "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8",
    ("monitor_general", "worst", 0): "7a14095923a39f1d8a0641a9d86e067e72d7cbce39de2ee571ddd0d4ad1a12ce",
    ("monitor_general", "worst", 7): "7a14095923a39f1d8a0641a9d86e067e72d7cbce39de2ee571ddd0d4ad1a12ce",
    ("monitor_general", "best", 0): "6559523969f999c60a4c4d93bb373529f53ecf4d48ca8d5b1986fbc304a3386f",
    ("monitor_general", "best", 7): "6559523969f999c60a4c4d93bb373529f53ecf4d48ca8d5b1986fbc304a3386f",
    ("monitor_general", "uniform", 0): "02158178bc48303546973bb8d5aceef9d933c24a2bb0d318bb6d5d7b549f3cfd",
    ("monitor_general", "uniform", 7): "5812bd0e369d7b2453f82f4b3d749d7acc90eeac1679b2c9194040ec0b2c48a1",
    ("monitor_simple", "worst", 0): "50c681e6fe164d882f1d2b9a733657edc3764923511a9215ccf8dc7ffbfa1add",
    ("monitor_simple", "worst", 7): "50c681e6fe164d882f1d2b9a733657edc3764923511a9215ccf8dc7ffbfa1add",
    ("monitor_simple", "best", 0): "231309ad2af413973977df6c8f7bce27eedc236b1dbe0acbade989c0dc955226",
    ("monitor_simple", "best", 7): "231309ad2af413973977df6c8f7bce27eedc236b1dbe0acbade989c0dc955226",
    ("monitor_simple", "uniform", 0): "641a3fd58e895e04f30e13e4e61627ad53cceeb796d9c94eacef145931fde913",
    ("monitor_simple", "uniform", 7): "9c48c8096335f34d27edeaf0ea0e35d25df7f6401c665225dd7fef6c412008ae",
    ("single_request", "worst", 0): "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12",
    ("single_request", "worst", 7): "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12",
    ("single_request", "best", 0): "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12",
    ("single_request", "best", 7): "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12",
    ("single_request", "uniform", 0): "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12",
    ("single_request", "uniform", 7): "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12",
    ("wake_cases", "worst", 0): "7d64fbca6d4ade474533f09aee9e22aea086740f92d9afb52d7f680ef424b71e",
    ("wake_cases", "worst", 7): "7d64fbca6d4ade474533f09aee9e22aea086740f92d9afb52d7f680ef424b71e",
    ("wake_cases", "best", 0): "678ccfbbb85eeedbf0898ca9ba9be6b7013d60c5dc8b7ad5dee5008dd27fb901",
    ("wake_cases", "best", 7): "678ccfbbb85eeedbf0898ca9ba9be6b7013d60c5dc8b7ad5dee5008dd27fb901",
    ("wake_cases", "uniform", 0): "26d3bb07f4ac23b2eb0ce2cdfd056abfb8baa542b5bfc91d737818bf3a2d3817",
    ("wake_cases", "uniform", 7): "0b909dd8fb881894a18c4029485cec338984b92d5e89cd2df10bf18c085784c8",
}


def test_every_model_is_pinned():
    stems = {path.stem for path in MODELS_DIR.glob("*.rtabs")}
    assert stems == {stem for stem, _, _ in PINS}


@pytest.mark.parametrize("stem,policy,seed", sorted(PINS))
def test_trace_pin(stem, policy, seed):
    model = load_model(str(MODELS_DIR / f"{stem}.rtabs"))
    trace = simulate(model, LIMIT, seed, policy).trace
    digest = hashlib.sha256(render_csv(trace).encode()).hexdigest()
    assert digest == PINS[stem, policy, seed]
