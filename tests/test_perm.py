import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permclass import Perm
from permclass.errors import (
    InvalidInflation,
    InvalidPointSet,
    InvalidSequence,
)
from permclass.perm import (
    EMPTY,
    _below_masks,
    _bounding_refs,
    _quadrants,
    _search,
    complement,
    contains,
    delete,
    direct_sum,
    identity,
    inflate,
    inverse,
    pattern_of,
    restriction,
    reverse,
    skew_sum,
)

from conftest import (
    all_perms,
    brute_contains_through_new_max,
    brute_contains_through_two_new_maxima,
    brute_search,
    contains_oracle,
    perms,
    perms_of,
    plain_occurs_split,
    segment_masks,
)

from permclass.antichain import SHORT_BASIS, is_antichain, mu

p = Perm.from_text


class TestPatternOf:
    def test_rank_replacement(self):
        assert pattern_of((4, 7, 6)) == p("132")

    def test_identity(self):
        assert pattern_of(range(1, 6)) == identity(5)

    def test_mu9_prefix(self):
        assert pattern_of((6, 9, 8)) == p("132")

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidSequence):
            pattern_of((1, 3, 3))

    @given(perms())
    def test_idempotent(self, q):
        assert pattern_of(q.values) == q


class TestRestriction:
    def test_mu7_prefix(self):
        assert restriction(mu(7), {1, 2, 3}) == p("132")

    def test_full(self):
        q = p("31524")
        assert restriction(q, range(1, 6)) == q

    def test_empty(self):
        assert restriction(p("312"), ()) == EMPTY

    def test_out_of_range(self):
        with pytest.raises(InvalidPointSet):
            restriction(p("312"), {0, 1})

    @given(perms(min_size=1, max_size=9), st.data())
    def test_delete_is_pattern_of_the_rest(self, q, data):
        i = data.draw(st.integers(1, len(q)))
        assert delete(q, i) == pattern_of(q.values[: i - 1] + q.values[i:])


class TestContains:
    def test_123_not_in_2143(self):
        assert not contains(p("123"), p("2143"))

    def test_singleton_in_anything(self):
        for q in ("1", "21", "2143", "52341"):
            assert contains(p("1"), p(q))

    def test_3214_not_in_mu7(self):
        assert not contains(p("3214"), mu(7))

    def test_descent(self):
        assert contains(p("21"), p("312"))

    def test_empty_pattern(self):
        assert contains(EMPTY, p("21"))
        assert contains(EMPTY, EMPTY)

    def test_matches_oracle_exhaustive(self):
        for np in range(1, 4):
            for nh in range(1, 6):
                for pat in all_perms(np):
                    for host in all_perms(nh):
                        assert contains(pat, host) == contains_oracle(pat, host)

    @given(perms(min_size=1, max_size=4), perms_of(9))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_long_hosts(self, pat, host):
        assert contains(pat, host) == contains_oracle(pat, host)

    @given(perms())
    def test_reflexive(self, q):
        assert contains(q, q)

    @given(perms(min_size=1, max_size=5), perms(max_size=8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pinned_maximum_matches_oracle(self, pat, q, data):
        # the enumeration engine's test: pat's maximum pinned to the new
        # maximum inserted into q at pos
        pos = data.draw(st.integers(0, len(q)))
        top = pat.values.index(len(pat))
        rest = pat.values[:top] + pat.values[top + 1:]
        cand = segment_masks(len(rest), len(q), (top,), (pos,))
        got = _search(_bounding_refs(rest), q.values, _below_masks(q.values), cand)
        assert got == brute_contains_through_new_max(pat, q, pos)

    @given(perms(min_size=2, max_size=5), perms(max_size=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_two_pinned_maxima_match_oracle(self, pat, q, data):
        # the enumeration engine's test of an inherited site: pat's maximum
        # pinned to m + 1 at index s, and its second maximum to m at p, in q
        # with m = len(q) + 1 inserted at p and then m + 1 at s
        p = data.draw(st.integers(0, len(q)))
        s = data.draw(st.integers(0, len(q) + 1))
        want = brute_contains_through_two_new_maxima(pat, q, p, s)
        top = pat.values.index(len(pat))
        second = pat.values.index(len(pat) - 1)
        if (top < second) != (s <= p):  # m + 1 and m in the wrong order
            assert not want
            return
        rest = tuple(v for v in pat.values if v < len(pat) - 1)
        cuts = (min(top, second), max(top, second) - 1)
        sites = (s, p) if s <= p else (p, s - 1)
        cand = segment_masks(len(rest), len(q), cuts, sites)
        assert _search(_bounding_refs(rest), q.values, _below_masks(q.values), cand) == want


def reference_contains(pat, host):
    """`plain_occurs_split` with no cuts: a scan with neither bitmasks, the
    quadrant filter nor backjumps."""
    return len(pat) <= len(host) and plain_occurs_split(
        _bounding_refs(pat.values)[:2], host.values)


@st.composite
def long_host_and_indices(draw, max_k=30):
    """A host of length 40-80 and a sorted set of 2 to max_k of its indices."""
    host = draw(st.integers(40, 80).flatmap(perms_of))
    k = draw(st.integers(2, max_k))
    idx = sorted(draw(st.lists(st.integers(0, len(host) - 1), min_size=k, max_size=k,
                               unique=True)))
    return host, idx


class TestContainsDifferential:
    """`contains` (bitmask scan and quadrant filter) against the plain scan."""

    @given(long_host_and_indices())
    @settings(max_examples=100, deadline=None)
    def test_yes_on_long_hosts(self, case):
        # a pattern taken out of the host occurs in it
        host, idx = case
        pat = pattern_of(host.values[i] for i in idx)
        assert contains(pat, host)
        assert reference_contains(pat, host)

    @given(long_host_and_indices(max_k=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_near_misses_on_long_hosts(self, case, data):
        # a pattern taken out of the host with two values swapped: mostly
        # "no", and found so only after a long search
        host, idx = case
        vals = [host.values[i] for i in idx]
        a = data.draw(st.integers(0, len(vals) - 2))
        vals[a], vals[a + 1] = vals[a + 1], vals[a]
        pat = pattern_of(vals)
        assert contains(pat, host) == reference_contains(pat, host)

    @given(st.integers(40, 80).flatmap(perms_of), st.integers(6, 16).flatmap(perms_of))
    @settings(max_examples=100, deadline=None)
    def test_random_pairs_on_long_hosts(self, host, pat):
        assert contains(pat, host) == reference_contains(pat, host)

    def test_some_no_on_long_hosts(self):
        # the host's longest increasing subsequences have length 2
        host = Perm((1,) + tuple(range(60, 1, -1)))
        assert not contains(identity(3), host)
        assert not reference_contains(identity(3), host)
        assert contains(identity(2), host)

    def test_short_basis_and_mu_pairs(self):
        items = sorted(set(SHORT_BASIS) | {mu(i) for i in range(7, 42, 2)})
        for a in items:
            for b in items:
                assert contains(a, b) == reference_contains(a, b), (a, b)


def reuse_pool():
    """Fresh `Perm` objects: the short basis, mu(7..31), every permutation of
    length <= 5, and seeded random permutations of length 6-20."""
    rng = random.Random(21)
    vals = [q.values for q in SHORT_BASIS]
    vals += [mu(i).values for i in range(7, 32, 2)]
    vals += [q.values for n in range(6) for q in all_perms(n)]
    vals += [tuple(rng.sample(range(1, n + 1), n)) for n in range(6, 21) for _ in range(2)]
    return [Perm(v) for v in dict.fromkeys(vals)]


class TestCachedSearchData:
    """`contains` keeps each operand's search data on the `Perm`; reusing one
    object as pattern and as host must change no answer and no behaviour."""

    @pytest.mark.parametrize("first", ["host", "pattern"])
    def test_reuse_matches_reference(self, first):
        pool = reuse_pool()
        # give every object its first use in one role, before the pairs
        anchor = Perm(()) if first == "host" else identity(max(map(len, pool)))
        cached = "_host_masks" if first == "host" else "_pattern_data"
        for x in pool:
            pat, host = (anchor, x) if first == "host" else (x, anchor)
            assert contains(pat, host) == reference_contains(pat, host)
            assert vars(x).keys() == {"values", cached}
        for pat in pool:
            for host in pool:
                want = reference_contains(pat, host)
                assert contains(pat, host) == want, (pat, host)
                assert contains(Perm(pat.values), Perm(host.values)) == want, (pat, host)

    def test_searched_perm_behaves_as_before(self):
        used = [Perm(q.values) for q in (mu(9), p("2413"), p("1"), EMPTY)]
        for a in used:
            for b in used:
                contains(a, b)
        assert all({"_host_masks", "_pattern_data"} <= vars(q).keys() for q in used)
        for q in used:
            fresh = Perm(q.values)
            assert q == fresh and hash(q) == hash(fresh)
            assert repr(q) == repr(fresh) and str(q) == str(fresh)
            for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
                assert twin == q and hash(twin) == hash(q)
                assert contains(twin, q) and contains(q, twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                q.values = (1,)
            with pytest.raises(dataclasses.FrozenInstanceError):
                q._host_masks = None
        assert ([x.values for x in sorted(used)]
                == [x.values for x in sorted(Perm(q.values) for q in used)]
                == [(), (1,), (2, 4, 1, 3), mu(9).values])
        assert [f.name for f in dataclasses.fields(Perm)] == ["values"]

    def test_antichain_witness_in_long_family(self):
        # the restriction sorts between mu(19) and mu(21): it is a host for
        # the shorter items before it is a pattern for the longer ones
        planted = restriction(mu(41), range(1, 41, 2))
        assert len(planted) == 20
        family = [*SHORT_BASIS, *(mu(i) for i in range(7, 42, 2)), planted]
        ok, witness = is_antichain(family)
        assert not ok
        a, b = witness
        assert a < b and reference_contains(a, b)
        items = sorted(set(family))
        first = next((x, y) for i, x in enumerate(items) for y in items[i + 1:]
                     if reference_contains(x, y))
        assert witness == first
        assert a == planted


class TestQuadrantLemma:
    @given(perms(max_size=9))
    def test_quadrant_counts(self, q):
        v = q.values
        want = [
            (
                sum(v[i] < v[x] for i in range(x)),
                sum(v[i] > v[x] for i in range(x)),
                sum(v[i] < v[x] for i in range(x + 1, len(v))),
                sum(v[i] > v[x] for i in range(x + 1, len(v))),
            )
            for x in range(len(v))
        ]
        assert _quadrants(v, _below_masks(v)) == want

    @given(perms(min_size=1, max_size=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_occurrence_is_a_candidate(self, host, data):
        # an occurrence at indices idx maps pattern entry j to idx[j], which
        # must be in entry j's candidate set
        k = data.draw(st.integers(1, len(host)))
        idx = sorted(data.draw(st.lists(st.integers(0, len(host) - 1), min_size=k,
                                        max_size=k, unique=True)))
        pat = pattern_of(host.values[i] for i in idx)
        _, (a, b, c, d) = host._host_masks
        quads, _ = pat._pattern_data
        cand = [a[e] & b[f] & c[g] & d[h] for e, f, g, h in quads]
        assert all(cand[j] >> x & 1 for j, x in enumerate(idx))

    @given(perms(max_size=9))
    def test_host_masks(self, q):
        # rows[r][t] holds the indices whose r-th quadrant count is >= t
        v = q.values
        lt, rows = q._host_masks
        assert lt == _below_masks(v)
        quads = _quadrants(v, lt)
        assert rows == [
            [sum(1 << x for x in range(len(v)) if quads[x][r] >= t) for t in range(len(v))]
            for r in range(4)
        ]


class TestBackjump:
    @given(perms(min_size=1, max_size=7), perms(max_size=13), st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_chronological_search(self, pat, host, data):
        k, n = len(pat), len(host)
        r = data.draw(st.integers(0, 2))
        splits = sorted(data.draw(st.lists(st.integers(0, k), min_size=r, max_size=r)))
        sites = sorted(data.draw(st.lists(st.integers(0, n), min_size=r, max_size=r)))
        refs = _bounding_refs(pat.values)
        want = plain_occurs_split(refs[:2], host.values, splits, sites)
        cand = segment_masks(k, n, splits, sites)
        assert _search(refs, host.values, _below_masks(host.values), cand) == want

    @given(perms(min_size=1, max_size=6), perms(max_size=10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_masks_match_oracle(self, pat, host, data):
        # the backjumps lose no occurrence whatever fixed masks entry j is
        # held to, not only segments and quadrant candidates
        cand = data.draw(st.lists(st.integers(0, (1 << len(host)) - 1),
                                  min_size=len(pat), max_size=len(pat)))
        got = _search(_bounding_refs(pat.values), host.values, _below_masks(host.values), cand)
        assert got == brute_search(pat, host, cand)

    @staticmethod
    def bounds(pv, t):
        # t bounds entry m > t iff no entry before m has a value strictly
        # between pv[t] and pv[m]
        return any(
            not any(min(pv[t], pv[m]) < pv[i] < max(pv[t], pv[m]) for i in range(m))
            for m in range(t + 1, len(pv))
        )

    def test_back_exhaustive(self):
        # back[j] is the largest t < j that bounds some entry, else -1
        for k in range(7):
            for q in all_perms(k):
                pv = q.values
                want = [max((t for t in range(j) if self.bounds(pv, t)), default=-1)
                        for j in range(k)]
                assert _bounding_refs(pv)[2] == want


class TestSymmetries:
    def test_inverse(self):
        assert inverse(p("2413")) == p("3142")
        assert inverse(identity(4)) == identity(4)
        assert inverse(inverse(mu(9))) == mu(9)

    def test_reverse_complement(self):
        assert reverse(p("123")) == p("321")
        assert complement(p("2143")) == p("3412")

    @given(perms())
    def test_involutions(self, q):
        assert inverse(inverse(q)) == q
        assert reverse(reverse(q)) == q
        assert complement(complement(q)) == q

    @given(perms(min_size=1, max_size=4), perms(min_size=1, max_size=6))
    @settings(max_examples=120)
    def test_equivariance(self, pat, host):
        base = contains(pat, host)
        assert contains(inverse(pat), inverse(host)) == base
        assert contains(reverse(pat), reverse(host)) == base
        assert contains(complement(pat), complement(host)) == base


class TestSums:
    def test_examples(self):
        assert direct_sum(p("21"), p("1")) == p("213")
        assert skew_sum(p("1"), p("1")) == p("21")
        assert direct_sum(EMPTY, p("312")) == p("312")
        assert skew_sum(p("312"), EMPTY) == p("312")

    @given(perms(), perms())
    def test_lengths_and_prefix(self, s, t):
        out = direct_sum(s, t)
        assert len(out) == len(s) + len(t)
        assert restriction(out, range(1, len(s) + 1)) == s

    @given(perms_of(5), perms_of(5), st.data())
    @settings(max_examples=80)
    def test_sum_monotone(self, s, t, data):
        sub_s = data.draw(
            st.sets(st.integers(1, 5), min_size=1).map(
                lambda a: restriction(s, a)
            )
        )
        sub_t = data.draw(
            st.sets(st.integers(1, 5), min_size=1).map(
                lambda a: restriction(t, a)
            )
        )
        assert contains(direct_sum(sub_s, sub_t), direct_sum(s, t))
        assert contains(skew_sum(sub_s, sub_t), skew_sum(s, t))


class TestInflate:
    def test_generalizes_sums(self):
        assert inflate(p("12"), [p("21"), p("1")]) == direct_sum(p("21"), p("1"))
        assert inflate(p("21"), [p("1"), p("12")]) == p("312")

    @given(perms(min_size=1, max_size=5))
    def test_singleton_parts(self, q):
        assert inflate(q, [p("1")] * len(q)) == q

    def test_errors(self):
        with pytest.raises(InvalidInflation):
            inflate(p("12"), [p("1")])
        with pytest.raises(InvalidInflation):
            inflate(p("12"), [p("1"), EMPTY])

    @given(perms_of(3), st.lists(perms_of(3), min_size=3, max_size=3), st.data())
    @settings(max_examples=60)
    def test_partwise_monotone(self, skel, parts, data):
        subs = [
            data.draw(
                st.sets(st.integers(1, 3), min_size=1).map(
                    lambda a, t=t: restriction(t, a)
                )
            )
            for t in parts
        ]
        assert contains(inflate(skel, subs), inflate(skel, parts))


class TestOrderAxioms:
    def test_antisymmetry_small(self):
        for n in range(1, 5):
            for a in all_perms(n):
                for b in all_perms(n):
                    if a != b:
                        assert not (contains(a, b) and contains(b, a))

    def test_transitivity_small(self):
        universe = [q for n in range(1, 5) for q in all_perms(n)]
        down = {
            q: {r for r in universe if contains(r, q)} for q in universe
        }
        for q in universe:
            for r in down[q]:
                assert down[r] <= down[q]


class TestText:
    def test_round_trip_short(self):
        assert str(p("2143")) == "2143"
        assert Perm.from_text("2143").values == (2, 1, 4, 3)

    def test_round_trip_long(self):
        text = "8,11,10,6,9,4,7,1,5,3,2"
        assert str(Perm.from_text(text)) == text
        assert Perm.from_text(text) == mu(11)

    def test_empty(self):
        assert Perm.from_text("") == EMPTY

    def test_invalid(self):
        with pytest.raises(InvalidSequence):
            Perm.from_text("1,2,2")
        with pytest.raises(InvalidSequence):
            Perm.from_text("13")
        with pytest.raises(InvalidSequence):
            Perm.from_text("abc")
        with pytest.raises(InvalidSequence):
            Perm.from_text("²")
        with pytest.raises(InvalidSequence):
            Perm.from_text("1²3")
        # int() alone takes a sign or '_' digit groups
        with pytest.raises(InvalidSequence):
            Perm.from_text("1,+2")
        with pytest.raises(InvalidSequence):
            Perm.from_text("1_0,1,2,3,4,5,6,7,8,9")
        with pytest.raises(InvalidSequence):
            Perm.from_text("-1,2")

    def test_delete(self):
        assert delete(p("2143"), 2) == p("132")
        with pytest.raises(InvalidPointSet):
            delete(p("21"), 3)
