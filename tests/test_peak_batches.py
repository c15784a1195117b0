"""extract_peaks on grids tall enough to need several batches of rows, with groups that close apart."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpt import DenseGrid, extract_peaks

from oracles import reference_peaks


@st.composite
def tall_grids(draw):
    """Channels of up to 150 rows: sparse bumps on a zero plateau, dense noise, or a constant, per channel."""
    c, h, w = draw(st.integers(1, 4)), draw(st.integers(33, 150)), draw(st.integers(1, 6))
    r = np.random.Generator(np.random.Philox(key=draw(st.integers(0, 2**32 - 1))))
    data = np.zeros((c, h, w))
    for ch in range(c):
        kind = draw(st.sampled_from(["sparse", "noise", "constant"]))
        if kind == "sparse":
            cells = r.random((h, w)) < draw(st.sampled_from([0.01, 0.05, 0.2]))
            data[ch][cells] = r.choice([0.25, 0.5, 1.0], size=int(cells.sum()))
        elif kind == "noise":
            data[ch] = r.random((h, w))
        else:
            data[ch] = 0.5
    if draw(st.booleans()):
        data[r.integers(c), r.integers(h)] = np.nan
    return data.astype(draw(st.sampled_from([np.float64, np.float32])))


@given(data=tall_grids(), per_channel=st.booleans(), k=st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_tall_grids_match_reference(data, per_channel, k):
    got = [tuple(p) for p in extract_peaks(DenseGrid(data), k, per_channel=per_channel)]
    assert got == reference_peaks(data, k, per_channel)
