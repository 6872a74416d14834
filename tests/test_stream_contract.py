"""The stream contract at each estimator's boundary (DESIGN §6).

Random Pairing checks every element for ABACUS, PARABACUS and CAS-R, and
FLEET3 checks its own insertions. Short random fully dynamic streams get
breaches injected: a same-side edge, a re-insert of a sampled edge and a
delete while no edge is live. Each breach raises, except a bad deletion
fed to an insert-only baseline, which ignores it. Either way the
estimator's state is left as it was, and going on gives the same state as
a twin that never saw the breach.

Streams that honour the contract may also delete an edge and insert it
again later; ``fully_dynamic_stream`` never does, so random insert/delete
sequences check that ABACUS and PARABACUS count such streams exactly, and
that the insert-only baselines, which ignore the deletion, take the
re-insert of an edge they still hold as a no-op.
"""
import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.cas import CasR
from repro.baselines.fleet import Fleet3
from repro.core import exact
from repro.core.abacus import Abacus
from repro.core.encoding import StreamContractError, enc_right
from repro.core.parabacus import ParAbacus, SerialExecutor
from repro.streamgen.stream import final_edges, fully_dynamic_stream

MAKERS = {
    "abacus": lambda k, m, seed: Abacus(k, seed=seed),
    "parabacus": lambda k, m, seed: ParAbacus(k, m, seed=seed, executor=SerialExecutor(2)),
    "cas": lambda k, m, seed: CasR(k + 2, seed=seed),
    "fleet": lambda k, m, seed: Fleet3(k, seed=seed),
}


def feed(est, elements):
    if isinstance(est, ParAbacus):
        est.process_batch(elements)
    else:
        for el in elements:
            est.process(*el)


def state(est):
    """Everything an element may move, the sampler's RNG included."""
    if isinstance(est, Fleet3):
        return (est.estimate, est.comparisons, est.p, est.sample.edges(), est.rng.getstate())
    rp = est.rp
    out = (est.estimate, est.comparisons, rp.triplet, rp.sample.edges(), rp.rng.getstate())
    if isinstance(est, CasR):
        return out + (est.sketch.tobytes(),)
    if isinstance(est, ParAbacus):
        return out + (dict(est.group_comparisons),)
    return out


def sampled(est):
    return (est.sample if isinstance(est, Fleet3) else est.rp.sample).edges()


def breach(kind, idx, left, insert, ahead, n_live):
    """The bad element, or None where ``kind`` cannot breach here."""
    a = idx % 8
    if kind == "same side":
        u, v = (a, a + 1) if left else (enc_right(a), enc_right(a + 1))
        return (u, v, 1 if insert else -1)
    if kind == "sampled re-insert":
        # An insert-only baseline also keeps edges whose deletion it
        # ignored; inserting one of those again honours the contract.
        edges = [e for e in sampled(ahead) if e not in getattr(ahead, "deleted", ())]
        if not edges:
            return None
        u, v = edges[idx % len(edges)]
        return (u, v, 1) if left else (v, u, 1)
    return (a, enc_right(idx % 7), -1) if n_live == 0 else None


@pytest.mark.parametrize("algo", MAKERS)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 6).map(enc_right)),
        min_size=1, max_size=40, unique=True,
    ),
    alpha=st.floats(0.0, 0.9),
    k=st.integers(2, 10),
    batch_size=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    breaches=st.lists(
        st.tuples(
            st.integers(0, 60),
            st.sampled_from(["same side", "sampled re-insert", "empty delete"]),
            st.integers(0, 50),
            st.booleans(),
            st.booleans(),
        ),
        max_size=6,
    ),
)
def test_breach_raises_or_is_ignored_with_state_unchanged(
    algo, edges, alpha, k, batch_size, seed, breaches
):
    stream = fully_dynamic_stream(edges, alpha, seed=seed)
    est, twin = (MAKERS[algo](k, batch_size, seed) for _ in range(2))
    step = batch_size if algo == "parabacus" else 1
    n_live = 0
    for start in range(0, len(stream), step):
        chunk = stream[start : start + step]
        for pos, kind, idx, left, insert in breaches:
            if not start <= pos < start + len(chunk):
                continue
            head = chunk[: pos - start]  # PARABACUS: the batch moves the sampler first
            ahead = copy.deepcopy(est)
            feed(ahead, head)
            bad = breach(kind, idx, left, insert, ahead,
                         n_live + sum(sign for _, _, sign in head))
            if bad is None:
                continue
            before = state(est)
            if algo in ("abacus", "parabacus") or bad[2] > 0:
                with pytest.raises(StreamContractError):
                    feed(est, head + [bad])
            else:
                assert est.process(*bad) == 0.0
            assert state(est) == before
        feed(est, chunk)
        feed(twin, chunk)
        n_live += sum(sign for _, _, sign in chunk)
    assert state(est) == state(twin)


@st.composite
def reinserting_streams(draw):
    """(stream, live edges): inserts pick an absent edge, deleted ones
    included, and a third of the elements delete a live edge."""
    universe = [(u, enc_right(r)) for u in range(6) for r in range(6)]
    live, stream = [], []
    for _ in range(draw(st.integers(1, 80))):
        absent = [e for e in universe if e not in live]
        if live and (not absent or draw(st.integers(0, 2)) == 0):
            e, sign = live.pop(draw(st.integers(0, len(live) - 1))), -1
        else:
            e, sign = absent[draw(st.integers(0, len(absent) - 1))], 1
            live.append(e)
        stream.append((*e, sign))
    return stream, live


@given(
    stream_live=reinserting_streams(),
    k=st.integers(2, 10),
    batch_size=st.integers(1, 20),
    n_groups=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_reinserting_streams_count_exactly(stream_live, k, batch_size, n_groups, seed):
    stream, live = stream_live
    final = final_edges(stream)
    assert len(set(final)) == len(final) and set(final) == set(live)
    truth = exact.butterflies_reference(final)
    assert exact.butterflies_duckdb(exact.edges_to_pdf(final)) == truth
    assert Abacus(len(stream) + 1, seed=seed).process_stream(stream) == pytest.approx(truth)
    # Theorem 5 at a small k, where sampling and pairing decisions are made
    e1 = Abacus(k, seed=seed).process_stream(stream)
    pb = ParAbacus(k, batch_size, seed=seed, executor=SerialExecutor(n_groups))
    assert pb.process_stream(stream) == pytest.approx(e1, rel=1e-9, abs=1e-9)


BASELINES = ["cas", "fleet"]


@pytest.mark.parametrize("algo", BASELINES)
def test_baseline_reinsert_after_ignored_delete_is_a_no_op(algo):
    """The baseline still holds the deleted edge, so in its insert-only
    view the edge never left: the re-insert changes nothing. It uses up
    the ignored deletion, so one more insert is a duplicate."""
    est = MAKERS[algo](10, 1, 0)
    feed(est, [(0, enc_right(0), 1), (0, enc_right(0), -1)])
    before = state(est)
    assert est.process(0, enc_right(0), 1) == 0.0
    assert state(est) == before
    with pytest.raises(StreamContractError):
        est.process(enc_right(0), 0, 1)
    assert state(est) == before


@pytest.mark.parametrize("algo", BASELINES)
def test_baseline_reinsert_with_no_delete_since_raises(algo):
    """A held edge whose last insert came after its last deletion is live:
    inserting it again raises, with nothing changed."""
    a, b = (0, enc_right(0)), (1, enc_right(0))
    est = MAKERS[algo](10, 1, 0)
    feed(est, [(*a, 1), (*b, 1), (*a, -1), (*a, 1), (1, enc_right(1), 1)])
    before = state(est)
    for u, v in (a, b):
        with pytest.raises(StreamContractError):
            est.process(u, v, 1)
        assert state(est) == before


@pytest.mark.parametrize("algo", BASELINES)
@given(stream_live=reinserting_streams(), k=st.integers(2, 10), seed=st.integers(0, 2**16))
def test_baselines_take_reinserting_streams(algo, stream_live, k, seed):
    """Streams that honour the contract never make a baseline raise, and
    the edges whose deletion it ignored are always ones it holds, so that
    memory stays within its capacity."""
    stream, _ = stream_live
    est = MAKERS[algo](k, 1, seed)
    for el in stream:
        est.process(*el)
        assert est.deleted <= set(sampled(est))
