"""Exact arithmetic in the ring of symmetric functions over the rationals,
vertex operators that add rows and columns to all six classical bases, and
the application counting pairs of same-shape standard tableaux of bounded
height.

``import symfunc`` loads no submodule.  Each exported name is imported from
its defining submodule on first use (PEP 562) and then kept in the package,
so ``from symfunc import SymFunc`` loads ``ring`` and what it needs, and
nothing else.
"""

# defining submodule -> the names the package exports from it
_EXPORTS = {
    "partitions": (
        "Composition",
        "Partition",
        "StraightenResult",
        "add_columns",
        "compositions_of",
        "conjugate",
        "insert_parts",
        "mult_count",
        "partitions_of",
        "partitions_upto",
        "remove_parts",
        "straighten",
        "z_value",
    ),
    "ring": (
        "BASES",
        "BasisExpansion",
        "SymFunc",
        "basis_element",
        "en",
        "expand",
        "hn",
        "inner_product",
        "jacobi_trudi",
        "omega",
        "pn",
        "r_coefficient",
        "skew",
    ),
    "expressions": ("ParseError", "parse_expression"),
    "vertex": (
        "ce_column",
        "ch_column",
        "cf_column",
        "cm_column",
        "cp_column",
        "cs_column",
        "named_operator",
        "rf_row",
        "rm_row",
        "rm_row_one",
        "rm_rows",
        "rs_row",
        "rs_rows",
        "t_minus_x",
        "t_minus_x_sum",
    ),
    "tableaux": (
        "bounded_height_pairs",
        "bounded_height_schur_sum",
        "catalan",
        "syt_count",
        "theta",
    ),
    "oracles": ("everything_op", "rs0_power_expansion"),
}

# exported name -> its defining submodule; each of these submodules is
# exported under its own name too
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        source = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # the call that ``from symfunc.<source> import <name>`` makes, so that
    # -X importtime lists the submodule (importlib.import_module would not)
    module = __import__(f"{__name__}.{source}", fromlist=[name])
    value = module if name == source else getattr(module, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
