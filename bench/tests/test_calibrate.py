import cProfile

from calibrate import Slice, wi


def _calls(kernel: Slice) -> int:
    profile = cProfile.Profile()
    profile.enable()
    kernel.run()
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def test_the_slice_repeats_exactly():
    kernel = Slice()
    first = kernel.run()
    assert kernel.run() == first
    assert Slice().run() == first
    counts = {_calls(kernel) for _ in range(3)}
    assert len(counts) == 1, counts


def test_wi_wraps_like_a_32_bit_register():
    assert wi(0x7FFFFFFF) == 0x7FFFFFFF
    assert wi(0x80000000) == -0x80000000
    assert wi(-1) == -1
    assert wi(0x1_0000_0005) == 5
