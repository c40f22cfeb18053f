import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsri import (
    ProbabilityVector,
    RandomStream,
    SparseVector,
    pivotal_sample,
    pivotal_sample_batch,
    preservation_split,
    spawn_stream,
)


from rsri.sampling import _pivotal_core

from conftest import random_probability_vector


class FixedStream:
    """Stub stream yielding a scripted uniform sequence."""

    kind = "fixed"

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        out = np.array(self.uniforms[: int(size)])
        del self.uniforms[: int(size)]
        return out


def sequential_pivotal(p, u):
    """Reference: the duel loop of Deville & Tille (1998), one duel at a time."""
    nz = np.flatnonzero(p)
    holder, carry, chosen = nz[0], p[nz[0]], []
    for k, uk in zip(nz[1:], u):
        total = carry + p[k]
        if total < 1.0:
            if uk * total >= carry:
                holder = k
            carry = total
        else:
            if uk * (2.0 - total) < 1.0 - p[k]:
                chosen.append(holder)
                holder = k
            else:
                chosen.append(k)
            carry = total - 1.0
    if len(chosen) < round(p.sum()):
        chosen.append(holder)
    return sorted(chosen)


class TestProbabilityVector:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProbabilityVector(2, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ProbabilityVector(2, np.array([-0.1, 0.1]))

    def test_rejects_non_integer_sum(self):
        with pytest.raises(ValueError):
            ProbabilityVector(2, np.array([0.5, 0.4]))

    def test_accepts_near_integer_sum(self):
        pv = ProbabilityVector(2, np.array([0.5, 0.5 + 5e-10]))
        assert pv.target_size == 1


class TestPivotalSample:
    def test_two_way_branches_exhaustively(self):
        # total = 1 puts the pair in the selection duel:
        # u (2 - total) < 1 - p picks the carry, otherwise the newcomer
        assert pivotal_sample(np.array([0.5, 0.5]), FixedStream([0.3])).tolist() == [0]
        assert pivotal_sample(np.array([0.5, 0.5]), FixedStream([0.7])).tolist() == [1]

    def test_two_way_marginals(self):
        p = np.array([0.5, 0.5])
        rng = RandomStream(11)
        hits = np.zeros(2)
        n = 20000
        for _ in range(n):
            s = pivotal_sample(p, rng)
            assert s.size == 1
            hits[s] += 1
        sigma = np.sqrt(0.25 / n)
        assert np.all(np.abs(hits / n - 0.5) < 4 * sigma)

    def test_empty_and_all_zero(self):
        assert pivotal_sample(np.empty(0), RandomStream(0)).size == 0
        assert pivotal_sample(np.zeros(4), RandomStream(0)).size == 0

    def test_cardinality_is_exact_every_draw(self, np_rng):
        rng = RandomStream(5)
        for trial in range(30):
            n = int(np_rng.integers(2, 16))
            m = int(np_rng.integers(1, min(n, 4)))
            p = random_probability_vector(np_rng, n, m)
            for _ in range(50):
                assert pivotal_sample(p, rng).size == m

    def test_forced_completion_under_float_drift(self):
        # five copies of 0.2 sum to just under 1 in binary; the final duel
        # must still complete the set
        p = np.full(5, 0.2)
        rng = RandomStream(17)
        for _ in range(2000):
            assert pivotal_sample(p, rng).size == 1

    def test_zero_entries_consume_no_randomness(self):
        base = np.array([0.5, 0.5])
        padded = np.array([0.0, 0.5, 0.0, 0.0, 0.5])
        for seed in range(20):
            s0 = pivotal_sample(base, RandomStream(seed))
            s1 = pivotal_sample(padded, RandomStream(seed))
            assert [{0: 1, 1: 4}[i] for i in s0.tolist()] == s1.tolist()

    def test_determinism(self):
        p = np.array([0.2, 0.8, 0.6, 0.4])
        a = pivotal_sample(p, RandomStream(123))
        b = pivotal_sample(p, RandomStream(123))
        np.testing.assert_array_equal(a, b)

    def test_marginal_calibration(self, np_rng):
        p = np.array([0.2, 0.8, 0.6, 0.4])
        n = 100_000
        sel = pivotal_sample_batch(p, RandomStream(7), n)
        assert np.all(sel.sum(axis=1) == 2)
        freq = sel.mean(axis=0)
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 4 * sigma)

    def test_negative_correlation(self):
        p = np.array([0.2, 0.8, 0.6, 0.4])
        n = 100_000
        sel = pivotal_sample_batch(p, RandomStream(9), n)
        for i in range(4):
            for j in range(i + 1, 4):
                joint = float((sel[:, i] & sel[:, j]).mean())
                pij = p[i] * p[j]
                sigma = np.sqrt(pij * (1 - pij) / n)
                assert joint <= pij + 4 * sigma

    def test_batch_matches_single_marginals(self, np_rng):
        p = random_probability_vector(np_rng, 8, 2)
        n = 40_000
        batch = pivotal_sample_batch(p, RandomStream(3), n).mean(axis=0)
        rng = RandomStream(4)
        single = np.zeros(8)
        for _ in range(n):
            single[pivotal_sample(p, rng)] += 1
        single /= n
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(batch - p) <= 4 * sigma)
        assert np.all(np.abs(single - p) <= 4 * sigma)

    def test_matches_sequential_duel_loop(self, np_rng):
        for seed in range(200):
            n = int(np_rng.integers(2, 200))
            p = random_probability_vector(np_rng, n, int(np_rng.integers(1, n // 2 + 1)))
            u = RandomStream(seed).random(n - 1)
            assert pivotal_sample(p, RandomStream(seed)).tolist() == sequential_pivotal(p, u)

    @pytest.mark.parametrize("p", [
        np.array([0.2, 0.8, 0.6, 0.4]),
        np.full(5, 0.2),
        np.array([0.0, 0.5, 0.0, 0.0, 0.5]),
        np.array([1.0 - 2.0**-53]),
        np.full(12, 0.25),
    ])
    def test_batch_rows_are_consecutive_single_draws(self, p):
        draws = 40
        batch = pivotal_sample_batch(p, RandomStream(21), draws)
        rng = RandomStream(21)
        for row in batch:
            np.testing.assert_array_equal(np.flatnonzero(row), pivotal_sample(p, rng))


    @pytest.mark.parametrize("p", [np.array([0.2, 0.8, 0.6, 0.4]), np.array([1.0 - 2.0**-53])])
    def test_zero_draws_give_an_empty_matrix(self, p):
        # the second vector needs completion, which must not index a draw
        assert pivotal_sample_batch(p, RandomStream(21), 0).shape == (0, p.size)


class TestPaddedRows:
    def test_rows_equal_separate_single_draws(self, np_rng):
        # rows of different lengths and targets laid end to end, each with
        # its own uniforms: row k is pivotal_sample on stream 60 + k
        rows = [random_probability_vector(np_rng, int(n), int(m))
                for n, m in [(12, 3), (5, 1), (30, 7), (2, 1)]]
        rows += [np.full(5, 0.2), np.array([1.0 - 2.0**-53])]  # completion, one entry
        starts = np.cumsum([0] + [p.size for p in rows[:-1]])
        # the entry opening a row meets no one: its uniform is ignored
        u = np.concatenate([np.append(0.5, RandomStream(60 + k).random(p.size - 1))
                            for k, p in enumerate(rows)])
        targets = np.array([ProbabilityVector(p.size, p).target_size for p in rows])
        sel = _pivotal_core(np.concatenate(rows), starts, targets, u[1:])
        for k, p in enumerate(rows):
            mine = sel[starts[k] : starts[k] + p.size]
            want = pivotal_sample(p, RandomStream(60 + k))
            np.testing.assert_array_equal(np.flatnonzero(mine), want)

    def test_wrong_target_raises(self):
        with pytest.raises(RuntimeError, match="selections for target 3"):
            _pivotal_core(np.array([0.5, 0.5]), np.array([0]), 3, np.array([0.3]))


@st.composite
def sampler_cases(draw):
    """Residual probabilities from the sparsifier's split, plus zero padding.

    Integer magnitudes (ties likely) are scaled into the 1e-300 and the
    subnormal range; a drifted case lowers the largest probability until
    the float prefix sum ends below the target, which forces completion;
    a single case holds one nonzero probability an ulp or more below one.
    """
    kind = draw(st.sampled_from(["split", "drift", "single"]))
    if kind == "single":
        probs = np.array([1.0 - draw(st.sampled_from([2.0**-53, 1e-12, 1e-10]))])
    else:
        n = draw(st.integers(min_value=2, max_value=40))
        ints = draw(st.lists(
            st.one_of(st.sampled_from([3, 3, 7]), st.integers(1, 10**6)),
            min_size=n, max_size=n,
        ))
        scale = draw(st.sampled_from([1.0, 0.1, 1e-300, 5e-324]))
        v = SparseVector.from_pairs(n, list(enumerate(np.array(ints) * scale)))
        probs = preservation_split(v, draw(st.integers(1, n - 1))).residual_probs.copy()
        if kind == "drift" and probs.size:
            target = round(probs.sum())
            top = int(np.argmax(probs))
            for _ in range(64):
                if np.cumsum(probs)[-1] < target:
                    break
                probs[top] = np.nextafter(probs[top], 0.0)
            assume(np.cumsum(probs)[-1] < target)
    pad = draw(st.lists(st.integers(0, 3), min_size=probs.size, max_size=probs.size))
    positions = np.arange(probs.size) + np.cumsum(pad)
    padded = np.zeros(probs.size + sum(pad) + draw(st.integers(0, 3)))
    padded[positions] = probs
    return probs, padded, positions, draw(st.integers(0, 2**32 - 1))


class TestPivotalProperties:
    @settings(max_examples=200, deadline=None)
    @given(sampler_cases())
    def test_exact_size_nonzero_support_and_padding(self, case):
        probs, padded, positions, seed = case
        target = ProbabilityVector(probs.size, probs).target_size
        rng, padded_rng = RandomStream(seed), RandomStream(seed)
        for _ in range(5):
            s = pivotal_sample(probs, rng)
            assert s.size == target
            assert np.all(np.diff(s) > 0)
            assert np.all(probs[s] > 0.0)
            np.testing.assert_array_equal(pivotal_sample(padded, padded_rng), positions[s])
        batch = pivotal_sample_batch(padded, RandomStream(seed), 5)
        assert np.all(batch.sum(axis=1) == target)
        assert not batch[:, padded == 0.0].any()


class TestRandomStream:
    def test_spawn_is_deterministic(self):
        a = spawn_stream(RandomStream(7), 0)
        b = spawn_stream(RandomStream(7), 0)
        np.testing.assert_array_equal(a.random(10), b.random(10))

    def test_spawn_trials_differ(self):
        a = spawn_stream(RandomStream(7), 0)
        b = spawn_stream(RandomStream(7), 1)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_spawned_replay_gives_identical_samples(self):
        p = np.array([0.2, 0.8, 0.6, 0.4])
        first = pivotal_sample(p, spawn_stream(RandomStream(7), 3))
        second = pivotal_sample(p, spawn_stream(RandomStream(7), 3))
        np.testing.assert_array_equal(first, second)

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            spawn_stream(RandomStream(7), -1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(2**64)

    def test_rejects_float_seed(self):
        # int() would truncate 1.5 and replay RandomStream(1)'s draws
        with pytest.raises(TypeError, match="seed must be an integer"):
            RandomStream(1.5)

    def test_rejects_bool_seed(self):
        with pytest.raises(TypeError, match="seed must be an integer"):
            RandomStream(True)

    def test_rejects_string_seed(self):
        with pytest.raises(TypeError, match="seed must be an integer"):
            RandomStream("7")

    def test_rejects_float_trial(self):
        with pytest.raises(TypeError, match="trial must be an integer"):
            spawn_stream(RandomStream(1), 2.7)

    def test_numpy_integer_seed_and_trial_draw_as_ints(self):
        assert RandomStream(np.uint64(5)).random() == RandomStream(5).random()
        child = spawn_stream(RandomStream(np.uint64(5)), np.int64(2))
        assert child.path == (2,)
        assert child.random() == spawn_stream(RandomStream(5), 2).random()

    def test_kind_recorded(self):
        assert RandomStream(0).kind == "pcg64"
