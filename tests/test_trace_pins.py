"""Trace pins: the sha256 of the CSV trace of every model under every
duration policy and two seeds, recorded before a change and held after
it.  A change that is meant to keep traces byte-identical must keep
every pin; a pin that moves names the model, policy and seed to diff.

Each pinned trace also pins what `rtabs metrics` reads from it: the
misses it counts agree with the engine's `deadline_miss` events, every
`return` is one outcome, and the `--series misses` output, plain and
`--by method`, keeps its digest, read from the CSV trace and from the
same trace in JSONL."""

import hashlib
from collections import Counter

import pytest

from conftest import MODELS_DIR
from rtabs import cli, derive_outcomes, load_model, misses_series, simulate
from rtabs.trace import render_csv, render_structured

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


# trace digest -> digests of `rtabs metrics --series misses` output,
# plain and `--by method`; the 54 pinned runs have 16 distinct traces
METRICS_PINS = {
    "e097af31c3874a448a61e22a8b60cb120a898ca797aa299ed3cc8525e4198ef8": (
        "8184370c34c926c57c798dcd64cfb7251e9c125fef82f04e88a685797c0609e3",
        "edb1cc6c817f690d6083835718e5ad1a2b3004e1c05fe52e047b804dbeeb74c4"),
    "2c5b84b8a18807edcb68b6297080feee92a60fd07aa2827101b9a9d357029642": (
        "d5cc447f5674ccb46b112ce62ef258ed1c45393b5b5cd6901f41d8ed349a7a81",
        "1f4dc04a8f1b3e1a6666e745dd67166825a093b320869d685f95dd69a38d16c6"),
    "897c1765024e3bdfb4e9538e160fe7bf2c4d062ce675299229d35598a54faa4d": (
        "c6c0fa685c2946c3e9fc38adaa57e2a74c31abed46b7a7f86076c81c7b40d47a",
        "d5fdd872a1f396b6b29133fa4247fbbeaa4671e51d02b2129c7d75baf69e664f"),
    "6559523969f999c60a4c4d93bb373529f53ecf4d48ca8d5b1986fbc304a3386f": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "02158178bc48303546973bb8d5aceef9d933c24a2bb0d318bb6d5d7b549f3cfd": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "5812bd0e369d7b2453f82f4b3d749d7acc90eeac1679b2c9194040ec0b2c48a1": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "7a14095923a39f1d8a0641a9d86e067e72d7cbce39de2ee571ddd0d4ad1a12ce": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "231309ad2af413973977df6c8f7bce27eedc236b1dbe0acbade989c0dc955226": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "641a3fd58e895e04f30e13e4e61627ad53cceeb796d9c94eacef145931fde913": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "9c48c8096335f34d27edeaf0ea0e35d25df7f6401c665225dd7fef6c412008ae": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "50c681e6fe164d882f1d2b9a733657edc3764923511a9215ccf8dc7ffbfa1add": (
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019",
        "d247494798cec8a771c4d87523dc358395f15f421688847ba585a9478b1d7019"),
    "bb21f669da6f6d28307633279ca5a258fb84fddb72bf09a0ea3bcaf9e472ba12": (
        "7a395338a4bd2035d8330bc2aad9971ddd1eaa2a361d04c99832440ffa3766c3",
        "7a395338a4bd2035d8330bc2aad9971ddd1eaa2a361d04c99832440ffa3766c3"),
    "678ccfbbb85eeedbf0898ca9ba9be6b7013d60c5dc8b7ad5dee5008dd27fb901": (
        "8a7c2c8de1aeeeb32d408fa0fb22a9fb254bbda920518668707861217a72f464",
        "8a7c2c8de1aeeeb32d408fa0fb22a9fb254bbda920518668707861217a72f464"),
    "26d3bb07f4ac23b2eb0ce2cdfd056abfb8baa542b5bfc91d737818bf3a2d3817": (
        "980edc6b5946d172b4ce1b584912a2a96289a3eb72a3ae40409e4a6956f6d12c",
        "980edc6b5946d172b4ce1b584912a2a96289a3eb72a3ae40409e4a6956f6d12c"),
    "0b909dd8fb881894a18c4029485cec338984b92d5e89cd2df10bf18c085784c8": (
        "b0780878959899d13d451c677dad3468b7995af8a5d03916c58eff3070ae7de8",
        "b0780878959899d13d451c677dad3468b7995af8a5d03916c58eff3070ae7de8"),
    "7d64fbca6d4ade474533f09aee9e22aea086740f92d9afb52d7f680ef424b71e": (
        "96072cc1329bcb8b4b317e76832cec08b554ebf5a9b1e4a0198a2d568edc5c6e",
        "96072cc1329bcb8b4b317e76832cec08b554ebf5a9b1e4a0198a2d568edc5c6e"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_model_is_pinned():
    stems = {path.stem for path in MODELS_DIR.glob("*.rtabs")}
    assert stems == {stem for stem, _, _ in PINS}


@pytest.mark.parametrize("stem,policy,seed", sorted(PINS))
def test_trace_pin(stem, policy, seed, tmp_path, capsys):
    model = load_model(str(MODELS_DIR / f"{stem}.rtabs"))
    trace = simulate(model, LIMIT, seed, policy).trace
    text = render_csv(trace)
    digest = sha256(text)
    assert digest == PINS[stem, policy, seed]

    kinds = Counter(ev.kind for ev in trace)
    assert misses_series(trace)[-1].misses == kinds["deadline_miss"]
    assert len(derive_outcomes(trace)[0]) == kinds["return"]
    for name, encoded in (("trace.csv", text),
                          ("trace.jsonl", render_structured(trace))):
        path = tmp_path / name
        path.write_text(encoded, encoding="utf-8", newline="")
        outputs = []
        for by in ([], ["--by", "method"]):
            assert cli.main(["metrics", str(path), "--series", "misses",
                             *by]) == 0
            outputs.append(sha256(capsys.readouterr().out))
        assert tuple(outputs) == METRICS_PINS[digest], name
