"""The cached conversions and index tables hand their values to every caller.

A caller that wrote into one would change every later result that reads
it, so fingerprint each cached value, run the public operations over the
same degrees, and require every value to come out unchanged.
"""

from fractions import Fraction

from symfunc import polyoracle, ring
from symfunc.partitions import partitions_of, partitions_upto
from symfunc.ring import BASES, SymFunc, basis_element, expand, inner_product, omega, skew
from symfunc.tableaux import bounded_height_pairs
from symfunc.vertex import OPERATORS, named_operator

DEGREE = 8
ORACLE_VARS = 4  # the polynomial oracle's memo, at degrees up to 4


def _cached_values():
    """The one conversion memo, every basis at every shape up to DEGREE, the
    set-partition sums behind m, the class rows of each degree behind h and
    s, the skew's sub-multiset tables, the merged product indices and the
    oracle's power-sum polynomials."""
    shapes = list(partitions_upto(DEGREE))
    for lam in shapes:
        for b in BASES:
            yield (b, lam), ring._basis_p(b, lam)
        yield ("_blocks", lam), ring._blocks(lam)
        yield ("_sub_table", lam), ring._sub_table(lam)
        for mu in shapes:
            if sum(lam) + sum(mu) <= DEGREE:
                yield ("_merged", lam, mu), ring._merged(lam, mu)
        if sum(lam) <= ORACLE_VARS:
            yield ("_realize_p", lam), polyoracle._realize_p(lam, ORACLE_VARS)
    for n in range(DEGREE + 1):
        yield ("_degree_rows", n), ring._degree_rows(n)


def _fingerprint(value):
    if isinstance(value, SymFunc):
        return (id(value), sorted(value._terms.items()), value._den)
    if isinstance(value, dict):
        return (id(value), sorted(value.items()))
    return (id(value), tuple(value))


def _fingerprints():
    return {key: _fingerprint(value) for key, value in _cached_values()}


def _sweep():
    shapes = [lam for d in range(1, 5) for lam in partitions_of(d)]
    for lam in shapes:
        for mu in shapes:
            if sum(lam) + sum(mu) > DEGREE:
                continue
            for b in BASES:
                f, g = basis_element(b, lam), basis_element(b, mu)
                for dst in BASES:
                    expand(f * g, dst)
                expand(omega(f) - f, b)
                skew(g, f)
                skew(f, f * g)
                inner_product(f, g)
    # the operators' kernel reads the shared _sub_table rows of every index of
    # its operand, so one operand mixes degrees, bases and denominators too
    mixed = SymFunc.sum((
        (Fraction(1, 2), basis_element("s", (2, 1))),
        (-3, basis_element("m", (1, 1))),
        (Fraction(2, 3), basis_element("p", (3,))),
        (Fraction(5, 4), basis_element("e", (1,))),
    ))
    for name, (_, least_a, least_k) in OPERATORS.items():
        op = named_operator(
            name, 2 if least_a is not None else None, 2 if least_k is not None else None
        )
        for lam in shapes:
            if sum(lam) <= 3:
                for b in BASES:
                    expand(op(basis_element(b, lam)), b)
        for b in BASES:
            expand(op(mixed), b)
    for method in ("closed", "det", "brute"):
        bounded_height_pairs(DEGREE, 3, method)
    for lam in shapes:
        for b in BASES:
            polyoracle.first_mismatch(b, lam, ORACLE_VARS)


def test_cached_conversions_survive_a_sweep():
    before = _fingerprints()
    _sweep()
    after = _fingerprints()
    changed = [key for key in before if after[key] != before[key]]
    assert not changed, f"cached conversions changed: {changed[:5]}"
