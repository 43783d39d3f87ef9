import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from symfunc import partitions, ring
from symfunc.partitions import Partition, conjugate, partitions_of, straighten, z_value
from symfunc.ring import (
    BASES,
    BasisExpansion,
    SymFunc,
    basis_element,
    en,
    expand,
    hn,
    inner_product,
    jacobi_trudi,
    omega,
    pn,
    r_coefficient,
    skew,
)
from symfunc.tableaux import syt_count

P = Partition

# keep |lam| <= 8 so duality solves stay quick inside hypothesis loops
parts_strategy = st.lists(st.integers(1, 5), max_size=4).filter(
    lambda xs: sum(xs) <= 8
).map(lambda xs: P(sorted(xs, reverse=True)))
basis_strategy = st.sampled_from(BASES)


def all_parts_upto(n):
    for d in range(n + 1):
        yield from partitions_of(d)


# --- SymFunc arithmetic ----------------------------------------------------


def test_symfunc_zero_and_one():
    assert SymFunc.zero().is_zero
    assert SymFunc.one().constant_term() == 1
    assert (SymFunc.one() * SymFunc.zero()).is_zero
    assert not SymFunc.zero()


def test_symfunc_prunes_zero_coefficients():
    g = SymFunc({P((2,)): Fraction(0), P((1,)): 1})
    assert g.coefficient((2,)) == 0
    assert g == pn(1)
    assert (pn(2) - pn(2)).is_zero


def test_symfunc_degree_parts():
    g = pn(3) + 2 * pn(1) + SymFunc.one()
    assert g.degree() == 3
    assert g.degrees() == {0, 1, 3}
    assert g.homogeneous_part(1) == 2 * pn(1)
    assert g.constant_term() == 1


def test_symfunc_power():
    for g in (
        hn(1),
        Fraction(-2, 3) * basis_element("p", (2, 1, 1)),
        pn(2) + SymFunc.one(),
        2 * hn(2) - Fraction(1, 3) * en(1) * pn(1),
        basis_element("s", (2, 1)) - en(3),
    ):
        want = SymFunc.one()
        for n in range(6):
            assert g ** n == want, (g, n)
            want = want * g


def _merge_entries():
    return sum(map(len, ring._MERGED))


def test_single_term_power_adds_no_merged_indices():
    # n products, one at a time, would add n entries to the merge table
    before = _merge_entries()
    assert pn(1) ** 1000 == SymFunc({(1,) * 1000: 1})
    assert _merge_entries() == before


small_scalar = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)
scaled_element = st.builds(
    lambda c, b, parts: c * basis_element(b, P(sorted(parts, reverse=True))),
    small_scalar,
    basis_strategy,
    st.lists(st.integers(1, 5), max_size=5).filter(lambda xs: sum(xs) <= 5),
)


@given(st.lists(st.tuples(small_scalar, scaled_element), max_size=5))
@settings(max_examples=150, deadline=None)
def test_sum_is_the_linear_combination(pairs):
    before = [(dict(g._terms), g._den) for _, g in pairs]
    got = SymFunc.sum(iter(pairs))
    want = {}
    for c, g in pairs:
        for lam, v in g.items():
            want[lam] = want.get(lam, 0) + c * v
    assert dict(got.items()) == {lam: v for lam, v in want.items() if v}
    assert _canonical(got)
    assert [(g._terms, g._den) for _, g in pairs] == before
    # a dict is shared only by a lone live input with coefficient 1, returned whole
    if any(got._terms is g._terms for _, g in pairs):
        live = [(c, g) for c, g in pairs if c and g]
        assert len(live) == 1 and live[0][0] == 1 and live[0][1] is got


def test_sum_returns_a_lone_unit_term_whole():
    g = Fraction(2, 3) * hn(2)
    assert SymFunc.sum([(1, g)]) is g
    assert SymFunc.sum([(0, pn(1)), (Fraction(1), g), (5, SymFunc.zero())]) is g
    assert SymFunc.sum([(-1, g)]) == -g
    assert SymFunc.sum([]) == SymFunc.zero()
    assert SymFunc.sum([(2, g), (-2, g)]).is_zero


def test_scalars_are_int_or_fraction():
    assert pn(1) * Fraction(1, 2) == Fraction(1, 2) * pn(1) == SymFunc({(1,): Fraction(1, 2)})
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            pn(1) * bad
        with pytest.raises(TypeError):
            bad * pn(1)
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError):
            SymFunc({(1,): bad})
    # SymFunc.sum is the one check, and it runs before zero terms are skipped
    p1 = pn(1)
    for bad in (0.5, "1/2", True, 0.0):
        with pytest.raises(TypeError, match="^coefficients are int or Fraction, not "):
            SymFunc.sum([(bad, p1)])
    with pytest.raises(TypeError, match="^coefficients are int or Fraction, not bool$"):
        pn(1) * True


def test_operands_are_symfunc():
    # SymFunc.sum checks each term, so + and - refuse through it as well
    g = hn(2)
    for call in (
        lambda: skew(3, g),
        lambda: skew(g, 3),
        lambda: inner_product(g, 3),
        lambda: inner_product(3, g),
        lambda: g + 3,
        lambda: g - 3,
        lambda: SymFunc.sum([(1, 3)]),
        lambda: SymFunc.sum([(0, 3)]),
        lambda: expand(3, "s"),
        lambda: omega(3),
    ):
        with pytest.raises(TypeError, match="^operands are SymFunc, not int$") as caught:
            call()
        assert type(caught.value) is TypeError


def test_equality_with_a_non_symfunc_is_false():
    assert (hn(2) == 3) is False
    assert (hn(2) != 3) is True
    assert (SymFunc.one() == 1) is False


def test_expand_refuses_an_unknown_basis():
    with pytest.raises(ValueError) as caught:
        expand(hn(2), "x")
    assert str(caught.value) == f"unknown basis 'x'; expected one of {BASES}"


# --- basis elements and conversions ----------------------------------------


def test_basis_element_examples():
    e2 = basis_element("e", P((2,)))
    assert e2.coefficient((1, 1)) == Fraction(1, 2)
    assert e2.coefficient((2,)) == Fraction(-1, 2)
    assert basis_element("s", P((1, 1))) == e2
    p31 = basis_element("p", P((3, 1)))
    assert dict(p31.items()) == {P((3, 1)): 1}


def _literal_row(n, sign):
    # sum over mu |- n of sign(mu) p_mu / z_mu
    return SymFunc({mu: Fraction(sign(mu), z_value(mu)) for mu in partitions_of(n)})


def test_h_and_e_equal_their_literal_sums():
    # h_n = sum p_mu / z_mu and e_n = sum (-1)^{n - l(mu)} p_mu / z_mu, and
    # e_lam as the product of its rows: a route to e that avoids omega.
    e_rows = [_literal_row(n, lambda mu: -1 if (sum(mu) - len(mu)) % 2 else 1) for n in range(13)]
    for n in range(13):
        assert hn(n) == _literal_row(n, lambda mu: 1)
        assert en(n) == e_rows[n]
    for lam in all_parts_upto(8):
        product = SymFunc.one()
        for part in lam:
            product = product * e_rows[part]
        assert basis_element("e", lam) == product, lam


def test_public_api_speaks_partitions():
    # partition ids stay inside the ring: every key a caller sees is a Partition
    g = SymFunc.sum(
        ((Fraction(1, 2), basis_element("s", (3, 1))), (-3, basis_element("m", (2,))), (2, pn(0)))
    )
    keys = [lam for lam, _ in g.items()] + [lam for lam, _ in g.numerators()]
    for b in BASES:
        expansion = expand(g, b)
        keys += list(expansion.terms) + [lam for lam, _ in expansion.sorted_terms()]
    keys += list(ring._jacobi_trudi_h((3, 1, 2)))
    assert keys and all(type(lam) is Partition for lam in keys)
    assert g.coefficient((2,)) == -3 and g.coefficient((9, 9, 9)) == 0
    assert g.constant_term() == 2


def test_pickle_and_copy_carry_partitions():
    import copy
    import pickle

    g = basis_element("s", (2, 1)) * Fraction(1, 3) - pn(4)
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert twin == g and hash(twin) == hash(g)
        assert dict(twin.numerators()) == dict(g.numerators()) and twin._den == g._den
    assert pickle.loads(pickle.dumps(SymFunc.zero())).is_zero


def test_p_memo_keys_are_partitions():
    # A plain tuple fills the same memo entry as its Partition.
    ring._basis_p.cache_clear()
    BasisExpansion("p", {(3, 1): Fraction(1)}).to_symfunc()
    assert repr(basis_element("p", P((3, 1)))) == "p[3,1]"


def test_bad_parts_never_reach_the_memo():
    # True == 1 and hashes like it, so a stored bool key would print later.
    ring._basis_p.cache_clear()
    bad = [
        (ValueError, lambda: basis_element("p", [True, True])),
        (TypeError, lambda: pn(True)),
        (TypeError, lambda: pn(False)),
        (TypeError, lambda: hn(False)),
        (TypeError, lambda: en(False)),
        (ValueError, lambda: pn(-1)),
        (ValueError, lambda: hn(-1)),
        (ValueError, lambda: en(-1)),
        (ValueError, lambda: SymFunc({(True,): 1})),
        (ValueError, lambda: SymFunc({(0,): 0})),  # a bad key, whatever its coefficient
    ]
    for error, build in bad:
        with pytest.raises(error):
            build()
    assert repr(basis_element("p", (1, 1))) == "p[1,1]"


def test_blocks_hold_no_zero():
    # every set partition with the block sums nu has Moebius sign
    # (-1)^{l(lam) - l(nu)}, so no sum cancels: a zero would be kept, as
    # _blocks never passes its dicts through SymFunc._reduced
    for n in range(14):
        for lam in partitions_of(n):
            for nu, c in ring._blocks(ring._intern(lam)).items():
                nu = ring._PARTITION[nu]
                assert sum(nu) == n and c, (lam, nu)
                assert (c > 0) == ((len(lam) - len(nu)) % 2 == 0), (lam, nu)


def test_basis_element_rejects_bad_basis():
    with pytest.raises(ValueError):
        basis_element("q", P((1,)))


def test_expand_examples():
    assert dict(expand(hn(2), "m").terms) == {P((2,)): 1, P((1, 1)): 1}
    assert dict(expand(en(2), "h").terms) == {P((1, 1)): 1, P((2,)): -1}
    assert dict(expand(pn(1), "s").terms) == {P((1,)): 1}


def test_multiply_examples():
    assert pn(2) * basis_element("p", P((2, 1))) == basis_element("p", P((2, 2, 1)))
    assert dict(expand(hn(1) * hn(1), "m").terms) == {P((2,)): 1, P((1, 1)): 2}
    assert (hn(3) * SymFunc.zero()).is_zero


def test_inner_product_examples():
    p21 = basis_element("p", P((2, 1)))
    assert inner_product(p21, p21) == 2
    assert inner_product(basis_element("s", P((2,))), basis_element("s", P((1, 1)))) == 0
    assert inner_product(basis_element("h", P((2, 1))), basis_element("m", P((2, 1)))) == 1


def test_omega_examples():
    assert omega(pn(3)) == pn(3)
    assert omega(pn(2)) == -1 * pn(2)
    assert omega(basis_element("h", P((2,)))) == basis_element("e", P((2,)))
    assert omega(basis_element("s", P((2, 1)))) == basis_element("s", P((2, 1)))


def test_skew_examples():
    assert skew(hn(1), basis_element("m", P((2, 1)))) == basis_element("m", P((2,)))
    assert skew(pn(2), basis_element("p", P((2, 2)))) == 4 * pn(2)
    assert skew(pn(3), hn(2)).is_zero
    # z_[2,2,1,1] / z_[2,1] = 16 / 2: p_1^perp then p_2^perp give 2 * 4
    p21 = basis_element("p", P((2, 1)))
    assert skew(p21, basis_element("p", P((2, 2, 1, 1)))) == 8 * p21


def test_r_coefficient_examples():
    assert r_coefficient(P((1, 1))) == 1
    assert r_coefficient(P((2,))) == -1
    assert r_coefficient(P((2, 1))) == -2
    assert r_coefficient(P(())) == 1


def test_jacobi_trudi_on_sequences():
    # a non-partition sequence straightens with a sign
    assert jacobi_trudi((0, 2)) == -1 * basis_element("s", P((1, 1)))
    assert jacobi_trudi((1, 2)).is_zero
    assert jacobi_trudi(()) == SymFunc.one()
    assert jacobi_trudi((2, 1)) == basis_element("s", P((2, 1)))


def test_jacobi_trudi_straightens_every_short_sequence():
    # every sequence of length <= 4 with entries in -2..5 against the
    # Murnaghan-Nakayama route: the straightened sign times s_shape, or zero
    for size in range(5):
        for seq in itertools.product(range(-2, 6), repeat=size):
            sign, shape = straighten(seq)
            want = sign * basis_element("s", shape) if sign else SymFunc.zero()
            assert jacobi_trudi(seq) == want, seq


# --- structural properties (bounded sweeps live in verify/acceptance) ------


@given(basis_strategy, parts_strategy)
@settings(max_examples=60, deadline=None)
def test_expand_roundtrip(b, lam):
    g = basis_element(b, lam)
    assert expand(g, b).terms == {lam: 1} if b == "p" else True
    for dst in BASES:
        assert expand(g, dst).to_symfunc() == g


@given(parts_strategy, parts_strategy)
@settings(max_examples=60, deadline=None)
def test_inner_product_symmetric(lam, mu):
    g1 = basis_element("h", lam)
    g2 = basis_element("e", mu)
    assert inner_product(g1, g2) == inner_product(g2, g1)


@given(parts_strategy, parts_strategy, parts_strategy)
@settings(max_examples=40, deadline=None)
def test_skew_adjointness_random(glam, plam, qlam):
    g = basis_element("p", glam)
    p = basis_element("p", plam)
    q = basis_element("p", qlam)
    assert inner_product(skew(g, p), q) == inner_product(p, g * q)


@given(parts_strategy)
@settings(max_examples=60, deadline=None)
def test_omega_involution_random(lam):
    for b in BASES:
        g = basis_element(b, lam)
        assert omega(omega(g)) == g
    assert omega(basis_element("m", lam)) == basis_element("f", lam)
    assert omega(basis_element("s", lam)) == basis_element("s", conjugate(lam))


def test_dual_pairs_small():
    for n in range(5):
        shapes = list(partitions_of(n))
        for lam in shapes:
            for mu in shapes:
                delta = 1 if lam == mu else 0
                assert inner_product(basis_element("m", lam), basis_element("h", mu)) == delta
                assert inner_product(basis_element("f", lam), basis_element("e", mu)) == delta
                assert inner_product(basis_element("s", lam), basis_element("s", mu)) == delta
                assert (
                    inner_product(
                        basis_element("p", lam),
                        basis_element("p", mu) * Fraction(1, z_value(mu)),
                    )
                    == delta
                )


def test_alternating_eh_relation():
    for n in range(1, 7):
        total = SymFunc.zero()
        for r in range(n + 1):
            term = en(r) * hn(n - r)
            total = total + (term if r % 2 == 0 else -term)
        assert total.is_zero


def test_e_in_h_via_r():
    for n in range(1, 7):
        total = SymFunc.zero()
        for mu in partitions_of(n):
            total = total + r_coefficient(mu) * basis_element("h", mu)
        assert total == en(n)


def test_expansion_text_and_json():
    exp = expand(en(2), "h")
    assert exp.to_text() == "h[1,1] - h[2]"
    doc = exp.to_json_obj()
    assert doc == {
        "basis": "h",
        "terms": [
            {"partition": [1, 1], "coeff": "1"},
            {"partition": [2], "coeff": "-1"},
        ],
    }
    assert expand(SymFunc.zero(), "p").to_text() == "0"
    assert expand(Fraction(3, 2) * SymFunc.one(), "s").to_text() == "3/2"


def test_monomial_conversion_against_known_values():
    # m_2 = p_2, m_11 = (p_11 - p_2)/2, m_21 = p_21 - p_3
    assert basis_element("m", P((2,))) == pn(2)
    assert basis_element("m", P((1, 1))) == Fraction(1, 2) * (pn(1) * pn(1) - pn(2))
    assert basis_element("m", P((2, 1))) == pn(2) * pn(1) - pn(3)


# --- the Schur and monomial constructions against independent routes -------


def test_schur_equals_jacobi_trudi_through_degree_10():
    for lam in all_parts_upto(10):
        assert basis_element("s", lam) == jacobi_trudi(lam), lam


def test_schur_survives_eviction_of_the_character_memo(monkeypatch):
    # a memo of four sub-states evicts on nearly every call, so every
    # character is rebuilt from evicted and refilled states
    monkeypatch.setattr(ring, "_chi", lru_cache(maxsize=4)(ring._chi.__wrapped__))
    ring._basis_p.cache_clear()
    for lam in all_parts_upto(12):
        assert basis_element("s", lam) == jacobi_trudi(lam), lam
    assert ring._chi.cache_info().currsize == 4


def test_monomial_h_duality_degrees_9_and_10():
    for n in (9, 10):
        shapes = list(partitions_of(n))
        for lam in shapes:
            m = basis_element("m", lam)
            for mu in shapes:
                delta = 1 if lam == mu else 0
                assert inner_product(m, basis_element("h", mu)) == delta, (lam, mu)


def test_monomial_h_duality_through_degree_8():
    # with the test above, <m_lam, h_mu> = delta for every lam, mu |- n <= 10:
    # m comes from set-partition sums and h from class sums, two routes
    for n in range(9):
        shapes = list(partitions_of(n))
        for lam in shapes:
            m = basis_element("m", lam)
            for mu in shapes:
                delta = 1 if lam == mu else 0
                assert inner_product(m, basis_element("h", mu)) == delta, (lam, mu)


def test_monomial_reads_only_the_coarsenings_of_its_shape(monkeypatch):
    # m_lam needs no partition of |lam| beyond those its parts merge into
    seen = []
    enumerate_degree = partitions._all_partitions
    monkeypatch.setattr(
        partitions, "_all_partitions", lambda n: seen.append(n) or enumerate_degree(n)
    )
    ring._basis_p.cache_clear()
    expected = {(10, 10, 10): Fraction(1, 6), (20, 10): Fraction(-1, 2), (30,): Fraction(1, 3)}
    assert basis_element("m", (10, 10, 10)) == SymFunc(expected)
    assert 30 not in seen


def test_schur_spot_check_degree_15():
    lam = P((5, 4, 3, 2, 1))
    s = basis_element("s", lam)
    assert s == jacobi_trudi(lam)
    # <s_lam, p_1^n> = chi^lam(1^n) is the number of standard tableaux
    assert s.coefficient((1,) * 15) * z_value(P((1,) * 15)) == syt_count(lam)


def test_monomial_spot_check_degree_15():
    lam = P((5, 4, 3, 2, 1))
    m = basis_element("m", lam)
    for mu in partitions_of(15):
        assert inner_product(m, basis_element("h", mu)) == (1 if mu == lam else 0), mu
    assert basis_element("m", P((1,) * 15)) == en(15)


# --- a second route for the ring operations ----------------------------------


def _literal_z(lam):
    out = 1
    for part, mult in Counter(lam).items():
        out *= part**mult * math.factorial(mult)
    return out


def _literal_mul(a, b):
    out = {}
    for lam, x in a.items():
        for mu, y in b.items():
            key = P(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + x * y
    return {lam: c for lam, c in out.items() if c}


def _literal_skew(a, b):
    # p_lam^perp p_mu = (z_mu / z_nu) p_nu for nu = mu minus the parts of lam
    out = {}
    for lam, x in a.items():
        for mu, y in b.items():
            rest = Counter(mu)
            rest.subtract(lam)
            if min(rest.values(), default=0) < 0:
                continue
            nu = P(sorted(rest.elements(), reverse=True))
            out[nu] = out.get(nu, 0) + x * y * Fraction(_literal_z(mu), _literal_z(nu))
    return {lam: c for lam, c in out.items() if c}


def _literal_pair(a, b):
    return sum((x * b[lam] * _literal_z(lam) for lam, x in a.items() if lam in b), Fraction(0))


def _literal_omega(a):
    return {lam: -c if (sum(lam) - len(lam)) % 2 else c for lam, c in a.items()}


def _canonical(g):
    # numerators over one denominator in lowest terms, no zero numerator
    return (
        g._den >= 1
        and all(g._terms.values())
        and math.gcd(g._den, *g._terms.values()) == 1
    )


def _coeffs(g):
    assert _canonical(g)
    return dict(g.items())


def test_operations_match_literal_fraction_formulas():
    elements = [(b, lam) for b in BASES for lam in all_parts_upto(6)]
    coeffs = {key: _coeffs(basis_element(*key)) for key in elements}
    for key, g in coeffs.items():
        assert _coeffs(omega(basis_element(*key))) == _literal_omega(g), key
    for k1 in elements:
        f, a = basis_element(*k1), coeffs[k1]
        for k2 in elements:
            if sum(k1[1]) + sum(k2[1]) > 6:
                continue
            g, b = basis_element(*k2), coeffs[k2]
            assert _coeffs(f * g) == _literal_mul(a, b), (k1, k2)
            assert _coeffs(skew(f, g)) == _literal_skew(a, b), (k1, k2)
            assert _coeffs(skew(g, f)) == _literal_skew(b, a), (k1, k2)
            assert inner_product(f, g) == _literal_pair(a, b), (k1, k2)
            assert _coeffs(f - g) == {
                lam: c for lam in a.keys() | b.keys() if (c := a.get(lam, 0) - b.get(lam, 0))
            }, (k1, k2)


def test_sub_table_rows_match_literal_removal():
    for mu in all_parts_upto(8):
        table = ring._sub_table(ring._intern(mu))
        assert len(table) == math.prod(m + 1 for m in Counter(mu).values()), mu
        for rho, (nu, ratio) in table.items():
            rho, nu = ring._PARTITION[rho], ring._PARTITION[nu]
            rest = Counter(mu)
            rest.subtract(rho)
            assert min(rest.values(), default=0) >= 0, (mu, rho)
            assert nu == P(sorted(rest.elements(), reverse=True)), (mu, rho)
            assert ratio == _literal_z(mu) // _literal_z(nu), (mu, rho)


def test_skew_matches_literal_on_mixed_combinations():
    # integer combinations of mixed degree: repeated parts, the empty index,
    # the zero function, and 2 p_211 - p_221 under p_1 + p_2, whose two p_21
    # contributions cancel
    wide = {lam: (-1) ** len(lam) * (sum(lam) + 1) for lam in all_parts_upto(5)}
    combos = [
        {},
        {(): 5},
        {(1, 1): 3, (): -2},
        {(1,): 1, (2,): 1},
        {(2, 1, 1): 2, (2, 2, 1): -1},
        {(2, 2, 1): 1, (3,): -4, (): 7},
        {(1,) * 6: 2, (2, 2, 1, 1): -1, (6,): 5, (3, 3): 1, (1,): -3},
        wide,
    ]
    funcs = [SymFunc(c) for c in combos]
    assert (2, 1) not in dict(skew(funcs[3], funcs[4]).numerators())
    # g is shorter than some target tables (1^6 has 7 rows) and longer than
    # others (a single part has 2), so both walks run
    tables = [len(ring._sub_table(mu)) for t in funcs for mu in t._terms]
    walks = {len(g._terms) <= rows for g in funcs for rows in tables}
    assert walks == {True, False}
    for g, a in zip(funcs, combos):
        for t, b in zip(funcs, combos):
            want = _literal_skew({P(k): v for k, v in a.items()}, {P(k): v for k, v in b.items()})
            assert _coeffs(skew(g, t)) == want, (a, b)


def test_equal_functions_hash_equal():
    half = Fraction(1, 2)
    pairs = [
        (SymFunc({(1,): half}) * 2, pn(1)),
        (SymFunc({(1, 1): half, (2,): -half}), en(2)),
        (SymFunc({(1, 1): Fraction(3, 6), (2,): Fraction(2, 4)}), hn(2)),
        (hn(2) - en(2), pn(2)),
        (Fraction(2, 3) * (hn(1) * Fraction(3, 4)), half * pn(1)),
        (SymFunc({(2,): 0, (): Fraction(7, 7)}), SymFunc.one()),
        (hn(3) - hn(3), SymFunc({})),
        # the two p_21 terms of the product cancel
        ((pn(1) + pn(2)) * (pn(1) - pn(2)), pn(1) ** 2 - pn(2) ** 2),
    ]
    for built, want in pairs:
        assert _canonical(built) and _canonical(want)
        assert built == want
        assert hash(built) == hash(want)
