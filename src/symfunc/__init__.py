"""Exact arithmetic in the ring of symmetric functions over the rationals,
vertex operators that add rows and columns to all six classical bases, and
the application counting pairs of same-shape standard tableaux of bounded
height."""

from .partitions import (
    Composition,
    Partition,
    StraightenResult,
    add_columns,
    compositions_of,
    conjugate,
    insert_parts,
    mult_count,
    partitions_of,
    partitions_upto,
    remove_parts,
    straighten,
    z_value,
)
from .ring import (
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
from .expressions import ParseError, parse_expression
from .vertex import (
    ce_column,
    ch_column,
    cf_column,
    cm_column,
    cp_column,
    cs_column,
    everything_op,
    named_operator,
    rf_row,
    rm_row,
    rm_row_one,
    rm_rows,
    rs_row,
    rs_rows,
    t_minus_x,
    t_minus_x_sum,
)
from .tableaux import (
    bounded_height_pairs,
    bounded_height_schur_sum,
    catalan,
    rs0_power_expansion,
    syt_count,
    theta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
