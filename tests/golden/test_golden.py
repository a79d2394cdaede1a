"""The encoder's callers against the outputs recorded in encoder.json: bit
for bit on the numpy, BLAS and SIMD build that recorded them, and to
GOLDEN_RTOL of each array's scale on any other."""
import hashlib
import json

import numpy as np
import pytest

import make_golden

GOLDEN_RTOL = 1e-5


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def exact(golden):
    return golden["build"] == make_golden.build()


@pytest.fixture(scope="module")
def pretrained():
    return make_golden.pretrained()


def assert_matches(got: np.ndarray, want: dict, exact: bool):
    assert [list(got.shape), str(got.dtype)] == [want["shape"], want["dtype"]]
    if exact:
        assert hashlib.sha256(np.ascontiguousarray(got).tobytes()).hexdigest() == want["sha256"]
    else:
        sample = make_golden.record(got)["sample"]
        scale = max(1.0, float(np.abs(want["sample"]).max()))
        np.testing.assert_allclose(sample, want["sample"], rtol=0, atol=GOLDEN_RTOL * scale)


def test_rollout_latents(golden, exact):
    assert_matches(make_golden.rollout_latents(), golden["rollout"], exact)


def test_latents_as_the_alive_set_shrinks(golden, exact):
    assert_matches(make_golden.shrinking_latents(), golden["shrinking"], exact)


def test_pretrain_buffer_has_a_dead_slot_and_a_finished_episode():
    first, second = make_golden.pretrain_buffer()
    assert len(first.steps) < len(second.steps)
    assert any(len(sd.ids) < len(second.steps[0].ids) for sd in second.steps[:len(first.steps)])


def test_pretrained_store(golden, exact, pretrained):
    store, _ = pretrained
    assert store.keys() == golden["pretrain"]["store"].keys()
    for name, array in store.items():
        assert_matches(array, golden["pretrain"]["store"][name], exact)


def test_pretrain_history(golden, exact, pretrained):
    _, history = pretrained
    want = golden["pretrain"]["history"]
    if exact:
        assert history == want
    else:
        for got, row in zip(history, want, strict=True):
            np.testing.assert_allclose(list(got.values()), list(row.values()), rtol=GOLDEN_RTOL)
