"""Differential tests: the matrix-form episode losses against their frozen
loop forms in ``scalar_oracle``.

The matrix forms sum in a different order, so results agree to rounding, not
bitwise.  Two facts set the scale that "within 1e-12 relative" is measured
against.  Gradients are sums over frames, videos and classes whose terms can
cancel, so an entry's rounding error follows the episode's largest gradient
entry, not the entry's own size.  And for a confident episode (loss L < 1)
the gradient is a difference of per-class terms about L times smaller than
those terms, so one rounding of log(1 + L) inside the softmax moves it by
about 1/L of its own size.  Hence the loss must be within 1e-12 * max(1, L)
and every gradient entry within 1e-12 * G / min(1, L), with G the largest
gradient entry of the episode.  otam-lite's alignment paths come from the
same DTW on the same distances and must be identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from fsvc import protocols
from fsvc.align import SaliencyParams
from fsvc.heads import LinearHead

SETTINGS = settings(max_examples=150, deadline=None)
REL = 1e-12


def assert_matches(got, ref):
    """``got`` and ``ref`` are (loss, grads) pairs."""
    loss, grads = got
    ref_loss, ref_grads = ref
    assert abs(loss - ref_loss) <= REL * max(1.0, ref_loss)
    assert grads.keys() == ref_grads.keys()
    largest = max(float(np.max(np.abs(g))) for g in ref_grads.values())
    bound = REL * largest / max(min(1.0, ref_loss), 1e-300)
    for name, g in ref_grads.items():
        assert grads[name].shape == g.shape, name
        assert float(np.max(np.abs(grads[name] - g))) <= bound, name


@st.composite
def episodes(draw):
    """A random episode and embedding: n_way 2-5, per-class shots 1-3
    (unequal allowed), T 1-8, C_in 2-12, C 2-16."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_way = draw(st.integers(2, 5))
    shots = draw(st.lists(st.integers(1, 3), min_size=n_way, max_size=n_way))
    t = draw(st.integers(1, 8))
    c_in = draw(st.integers(2, 12))
    c = draw(st.integers(2, 16))
    emb = LinearHead(
        gen.standard_normal((c, c_in)) / np.sqrt(c_in), gen.standard_normal(c) * 0.1
    )
    ep = protocols.EpisodeArrays(
        support=tuple(gen.standard_normal((k, t, c_in)) for k in shots),
        query=gen.standard_normal((t, c_in)),
        label=int(gen.integers(n_way)),
    )
    return emb, ep, gen


@SETTINGS
@given(episodes(), st.sampled_from([1.0, 10.0]))
def test_metabaseline_matches_oracle(case, tau):
    emb, ep, _ = case
    assert_matches(
        protocols.metabaseline_loss_and_grads(emb, ep, tau),
        oracle.metabaseline_loss_and_grads(emb, ep, tau),
    )


@SETTINGS
@given(episodes(), st.integers(1, 4), st.sampled_from([0.0, 0.5, 2.0]))
def test_cmn_matches_oracle(case, n_heads, q_scale):
    emb, ep, gen = case
    c = emb.n_out
    sal = SaliencyParams(q_scale * gen.standard_normal((n_heads, c)))
    assert_matches(
        protocols.cmn_loss_and_grads(emb, sal, ep, 10.0),
        oracle.cmn_loss_and_grads(emb, sal, ep, 10.0),
    )


@SETTINGS
@given(episodes(), st.booleans())
def test_otam_matches_oracle(case, normalize):
    emb, ep, _ = case
    loss, grads, paths = protocols.otam_loss_and_grads(emb, ep, 10.0, normalize)
    ref_loss, ref_grads, ref_paths = oracle.otam_loss_and_grads(emb, ep, 10.0, normalize)
    assert paths == ref_paths
    assert_matches((loss, grads), (ref_loss, ref_grads))
    # frozen paths are used as given
    again = protocols.otam_loss_and_grads(emb, ep, 10.0, normalize, paths=ref_paths)
    assert again[2] is ref_paths
    assert_matches(again[:2], (ref_loss, ref_grads))
