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


def _decoded(terms):
    """An id-keyed dict of the ring as sorted (partition, value) pairs."""
    return sorted((ring._PARTITION[i], c) for i, c in terms.items())


def _cached_values():
    """(key, cached value, its contents with every partition id decoded) for
    the one conversion memo, every basis at every shape up to DEGREE, the
    set-partition sums behind m, the class rows of each degree behind h and
    s, the skew's sub-multiset tables, the merged product indices and the
    oracle's power-sum polynomials."""
    part = ring._PARTITION
    shapes = list(partitions_upto(DEGREE))
    for lam in shapes:
        i = ring._intern(lam)
        for b in BASES:
            value = ring._basis_p(b, lam)
            yield (b, lam), value, (_decoded(value._terms), value._den)
        blocks = ring._blocks(i)
        yield ("_blocks", lam), blocks, _decoded(blocks)
        table = ring._sub_table(i)
        yield ("_sub_table", lam), table, sorted(
            (part[rho], (part[nu], ratio)) for rho, (nu, ratio) in table.items()
        )
        for mu in shapes:
            if sum(lam) + sum(mu) <= DEGREE:
                merged = part[ring._merged(i, ring._intern(mu))]
                yield ("_merged", lam, mu), merged, tuple(merged)
        if sum(lam) <= ORACLE_VARS:
            poly = polyoracle._realize_p(lam, ORACLE_VARS)
            yield ("_realize_p", lam), poly, sorted(poly.items())
    for n in range(DEGREE + 1):
        rows = ring._degree_rows(n)
        yield ("_degree_rows", n), rows, tuple((part[i], code, size) for i, code, size in rows)


def _fingerprints():
    return {key: (id(value), contents) for key, value, contents in _cached_values()}


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
