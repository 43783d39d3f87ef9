"""The names the command line offers: the six bases, the vertex operators
and the pair-count methods.

This module imports nothing from the package, so the command's parser can
list its choices without loading the modules that compute.  ``ring``,
``vertex`` and ``tableaux`` read these tables from here, and each is also
reachable as an attribute of its reader (``symfunc.ring.BASES``,
``symfunc.vertex.OPERATORS``, ``symfunc.tableaux.PAIR_METHODS``).
"""

from __future__ import annotations

from typing import Optional

BASES = ("p", "m", "e", "h", "s", "f")

# name -> (function name, least a, least k), the function taking (a, k, g)
# minus each parameter whose least is None, looked up when named_operator
# binds it.  The order is the CLI's --op order.
OPERATORS: dict[str, tuple[str, Optional[int], Optional[int]]] = {
    "CP": ("cp_column", 0, 0),
    "CH": ("ch_column", None, 1),
    "CE": ("ce_column", None, 1),
    "RM1": ("rm_row_one", 1, None),
    "RMK": ("rm_rows", 0, 0),
    "RM": ("rm_row", 1, None),
    "RF": ("rf_row", 1, None),
    "CM": ("cm_column", 0, 1),
    "CF": ("cf_column", 0, 1),
    "RS": ("rs_row", 0, None),
    "RSK": ("rs_rows", 0, 0),
    "CS": ("cs_column", 0, 0),
    "TX": ("t_minus_x", None, None),
}

PAIR_METHODS = ("closed", "det", "brute")
