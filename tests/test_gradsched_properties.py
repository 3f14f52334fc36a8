"""Property tests of the gradient-scheduling recursion.

Random blocks of frames by N = 1..9 users, with zero, tied and infinite
rates, scalar or per-user concavities down to 1e-300, and the generic
``ScaledLog`` utility: ``_schedule_frames`` chooses the same users as the
numpy reference in ``oracles`` and ends on the same average bits.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from utilsched import LogUtility  # noqa: E402
from utilsched.gradsched import _schedule_frames  # noqa: E402

from oracles import schedule_frames_numpy  # noqa: E402
from test_utility import ScaledLog  # noqa: E402

# a few repeated values make exact ties; inf makes 0 * inf = NaN scores
RATES = st.one_of(st.sampled_from([0.0, 1.0, 2.0, np.inf]), st.floats(0.0, 1e3))
CONCAVITY = st.one_of(st.sampled_from([1e-300, 0.1, 10.0]), st.floats(1e-300, 1e3))
AVERAGE = st.one_of(st.just(0.0), st.floats(0.0, 10.0))


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 9))
    t = draw(st.integers(1, 12))
    rates = np.array(draw(st.lists(st.lists(RATES, min_size=n, max_size=n), min_size=t, max_size=t)))
    avg = np.array(draw(st.lists(AVERAGE, min_size=n, max_size=n)))
    smoothing = draw(st.sampled_from([0.01, 0.5]) | st.floats(1e-3, 0.999))
    concavity = draw(st.lists(CONCAVITY, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["scalar", "per-user", "generic"]))
    utilities = {
        "scalar": LogUtility(concavity[0]),
        "per-user": LogUtility(np.array(concavity)),
        "generic": [ScaledLog(a) for a in concavity],
    }[kind]
    return avg, smoothing, rates, utilities


@given(blocks())
def test_equals_numpy_reference(block):
    avg, smoothing, rates, utilities = block
    chosen, final = _schedule_frames(avg, smoothing, rates, utilities)
    expected_chosen, expected_final = schedule_frames_numpy(avg, smoothing, rates, utilities)
    assert np.array_equal(chosen, expected_chosen)
    assert final.tobytes() == expected_final.tobytes()
