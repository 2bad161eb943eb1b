import pytest

import serve_load


@pytest.fixture(scope="module")
def inputs():
    return serve_load.Inputs.load()


def test_frozen_inputs(inputs):
    assert len(inputs.candidates) >= 4000
    assert len(set(inputs.candidates)) == len(inputs.candidates)
    assert len(inputs.hot_keys) == 8


def test_the_schedule_is_a_pure_function_of_the_seed(inputs):
    for block in (0, 1, 7):
        assert (serve_load.plan_block(5, block, inputs)
                == serve_load.plan_block(5, block, inputs))
    assert (serve_load.plan_block(5, 0, inputs)
            != serve_load.plan_block(6, 0, inputs))


def test_every_block_has_the_same_mix(inputs):
    wanted = dict(serve_load.BLOCK)
    for seed in (1, 2, 99):
        for block in range(4):
            kinds = [r.kind for r in serve_load.plan_block(seed, block,
                                                           inputs)]
            assert {k: kinds.count(k) for k in wanted} == wanted


def test_batch_candidates_never_repeat_within_a_run(inputs):
    seen = []
    for block in range(40):
        for request in serve_load.plan_block(3, block, inputs):
            seen.extend(index for index, _program in request.items)
    assert len(seen) == len(set(seen))
    assert all(0 <= index < len(inputs.candidates) for index in seen)


def test_candidate_offset_follows_the_seed(inputs):
    def first_index(seed):
        return min(index
                   for request in serve_load.plan_block(seed, 0, inputs)
                   for index, _program in request.items)
    assert first_index(1) != first_index(2)
    assert first_index(1) == first_index(1)
