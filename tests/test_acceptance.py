"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass line when
its assertions hold (visible with `pytest -s tests/test_acceptance.py`).
"""
import time
from fractions import Fraction
from math import comb

from conftest import all_perms
from permclass import Perm
from permclass.antichain import (
    SHORT_BASIS,
    double_fork,
    is_antichain,
    is_tree,
    mu,
    perm_graph,
    tree_isomorphic,
)
from permclass.cli import main
from permclass.enumeration import (
    QUAD_BASIS,
    SEED,
    abcde_step,
    count_avoiders,
    fit_recurrence,
)
from permclass.growth import IntPolynomial, alpha, dominant_root
from permclass.perm import (
    EMPTY,
    complement,
    contains,
    decreasing,
    deletions,
    direct_sum,
    inverse,
    reverse,
)
from permclass.structure import (
    al,
    down_decomposition,
    is_down_indecomposable,
    is_up_indecomposable,
    s_k,
    up_decomposition,
)

S_TABLE = [1, 2, 5, 12, 28, 65, 152, 355, 829, 1936, 4521, 10558]


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_count_table(capsys):
    start = time.monotonic()
    code = main(
        ["count", "--avoid", "123,3214,2143,15432", "--max-n", "12"]
    )
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    got = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert got == S_TABLE
    assert elapsed <= 60
    with capsys.disabled():
        report(1, f"quadruple-basis count table exact to n=12 ({elapsed:.1f}s)")


def test_criterion_2_transfer_matrix(capsys):
    start = time.monotonic()
    v = SEED
    totals = [v.total()]
    for _ in range(11):
        v = abcde_step(v)
        totals.append(v.total())
    elapsed = time.monotonic() - start
    assert totals == S_TABLE
    assert elapsed <= 1
    with capsys.disabled():
        report(2, "five-state vector evolution sums to the same 12 values")


def test_criterion_3_triple_basis(capsys):
    start = time.monotonic()
    t = count_avoiders(QUAD_BASIS[:3], 10)
    elapsed = time.monotonic() - start
    assert t[0] == 1 and t[1] == 2
    for n in range(3, 11):
        assert t[n - 1] == 2 * t[n - 2] + t[n - 3]
    assert elapsed <= 30
    with capsys.disabled():
        report(3, f"triple-basis counts follow t_n = 2t_(n-1) + t_(n-2) ({elapsed:.1f}s)")


def test_criterion_4_pair_basis(capsys):
    start = time.monotonic()
    got = count_avoiders(QUAD_BASIS[:2], 10)
    elapsed = time.monotonic() - start
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    want = [fib[2 * n - 1] for n in range(1, 11)]  # F_{2n} with F_1 = 0
    assert got == want
    assert got[3] == 13
    assert elapsed <= 60
    with capsys.disabled():
        report(4, f"pair-basis counts equal even-index Fibonacci numbers ({elapsed:.1f}s)")


def test_criterion_5_catalan(capsys):
    start = time.monotonic()
    got = count_avoiders([Perm.from_text("123")], 9)
    elapsed = time.monotonic() - start
    assert got == [comb(2 * n, n) // (n + 1) for n in range(1, 10)]
    assert elapsed <= 60
    with capsys.disabled():
        report(5, f"123-avoiders are Catalan-counted to n=9 ({elapsed:.1f}s)")


def test_criterion_6_recurrence_fitting(capsys):
    start = time.monotonic()
    rec = fit_recurrence(S_TABLE, 5)
    assert rec is not None and rec.order == 5
    assert rec.coeffs == tuple(Fraction(c) for c in (1, 2, 2, 1, 1))
    cat = [comb(2 * n, n) // (n + 1) for n in range(1, 13)]
    assert fit_recurrence(cat, 5) is None
    elapsed = time.monotonic() - start
    assert elapsed <= 1
    with capsys.disabled():
        report(6, "order-5 fit recovered; Catalan prefix rejected")


def test_criterion_7_roots(capsys):
    start = time.monotonic()
    cases = [
        (IntPolynomial((1, -1, -2, -2, -1, -1)), 2.33529),
        (IntPolynomial((1, -2, -1)), 2.41421),
        (IntPolynomial((1, -3, 1)), 2.61803),
    ]
    for poly, want in cases:
        est = dominant_root(poly, 1e-9)
        assert abs(est.value - want) < 1e-5
        lo, hi = est.bracket
        assert (poly.eval(lo) < 0) != (poly.eval(hi) < 0)
    golden = alpha(2, 1e-9)
    assert abs(golden.value - 1.61803) < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed <= 1
    with capsys.disabled():
        report(7, "all four dominant roots certified to 1e-5")


def test_criterion_8_antichain(capsys):
    start = time.monotonic()
    family = list(SHORT_BASIS) + [mu(i) for i in range(7, 18, 2)]
    ok, witness = is_antichain(family)
    assert ok and witness is None
    direct_elapsed = time.monotonic() - start
    assert direct_elapsed <= 60

    start = time.monotonic()
    for i in range(7, 32, 2):
        g = perm_graph(mu(i))
        assert is_tree(g)
        assert tree_isomorphic(g, double_fork(i))
    cert_elapsed = time.monotonic() - start
    assert cert_elapsed <= 5
    with capsys.disabled():
        report(
            8,
            f"antichain of 10 verified ({direct_elapsed:.1f}s); "
            f"tree certificates to i=31 ({cert_elapsed:.1f}s)",
        )


def test_criterion_9a_order_axioms(capsys):
    start = time.monotonic()
    universe = [q for n in range(1, 6) for q in all_perms(n)]
    down = {q: frozenset(r for r in universe if contains(r, q)) for q in universe}
    for q in universe:
        assert q in down[q]
        for r in down[q]:
            assert down[r] <= down[q]  # transitivity
            if len(r) == len(q):
                assert r == q  # antisymmetry
    for a in universe:
        for b in universe:
            assert contains(a, b) == contains(inverse(a), inverse(b))
            assert contains(a, b) == contains(reverse(a), reverse(b))
            assert contains(a, b) == contains(complement(a), complement(b))
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    with capsys.disabled():
        report(9, f"order axioms + symmetry equivariance, lengths <= 5 ({elapsed:.1f}s)")


def test_criterion_9b_reconstruction(capsys):
    start = time.monotonic()
    for n in range(1, 9):
        for q in all_perms(n):
            assert up_decomposition(q).rebuild() == q
            assert down_decomposition(q).rebuild() == q
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    with capsys.disabled():
        report(9, f"decomposition reconstruction, lengths <= 8 ({elapsed:.1f}s)")


def test_criterion_9c_indecomposable_descent(capsys):
    start = time.monotonic()
    for n in range(2, 8):
        for q in all_perms(n):
            if is_up_indecomposable(q):
                assert any(is_up_indecomposable(d) for d in deletions(q))
            if is_down_indecomposable(q):
                assert any(is_down_indecomposable(d) for d in deletions(q))
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    with capsys.disabled():
        report(9, f"indecomposable descent property, lengths <= 7 ({elapsed:.1f}s)")


def test_criterion_9d_continuity(capsys):
    start = time.monotonic()
    for n in range(2, 7):
        for tau in all_perms(n):
            for sigma in deletions(tau):
                assert al(tau) <= al(sigma) + 2
                for k in (2, 3):
                    assert s_k(tau, k) <= s_k(sigma, k) + 2
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    with capsys.disabled():
        report(9, f"one-point continuity of al and s_k, lengths <= 6 ({elapsed:.1f}s)")


def test_criterion_9e_layered_sum_count(capsys):
    start = time.monotonic()
    for n in range(1, 13):
        built = set()
        stack = [(EMPTY, 0)]
        while stack:
            q, used = stack.pop()
            if used == n:
                built.add(q)
                continue
            for size in range(1, n - used + 1):
                stack.append((direct_sum(q, decreasing(size)), used + size))
        assert len(built) == 2 ** (n - 1)
    elapsed = time.monotonic() - start
    assert elapsed <= 120
    with capsys.disabled():
        report(9, f"2^(n-1) layered sums for n <= 12 ({elapsed:.1f}s)")


def test_criterion_10_represented_by_1_and_8(capsys):
    # the set-theoretic statement itself is not desk-checkable; its two
    # computable ingredients are the growth bound (criterion 1) and the
    # finite antichain prefixes (criterion 8), re-asserted here in brief
    assert count_avoiders(QUAD_BASIS, 8) == S_TABLE[:8]
    est = dominant_root(IntPolynomial((1, -1, -2, -2, -1, -1)), 1e-9)
    assert est.value < 2.33530
    ok, _ = is_antichain(list(SHORT_BASIS) + [mu(i) for i in range(7, 14, 2)])
    assert ok
    with capsys.disabled():
        report(10, "represented by criteria 1 and 8 (growth bound + antichain prefix)")
