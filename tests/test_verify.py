"""Fault injection: a check must see a fault in the operator it checks.

Each operator below is replaced by one returning twice its value and run
through a check that compares it with an independent route.  The pairs
matter: ce_column is computed from ch_column, so doubling ch_column scales
both sides of check_eerie_he alike, and that check cannot see it.  The
paired Schur check sees either of its operators doubled: cs_column reads
rs_rows's law, not rs_rows.  The action laws are
checked through vertex.named_operator, the CLI's dispatch, which looks each
function up on the module when it binds it, so there too the module
attribute is doubled.  The kernel the operators sum through is faulted too:
an action law and the omega conjugation, whose literal sums skew by their
own route, must both see it.
"""

import ast
from pathlib import Path

import pytest

from symfunc import cli, polyoracle, ring, tableaux, verify, vertex
from symfunc.ring import basis_element
from symfunc.verify import Bounds

BOUNDS = Bounds(3)

# test id -> (doubled operator, check that must see it)
PAIRS = {
    "cm_column": ("cm_column", verify.check_eerie_cm),
    "cs_column": ("cs_column", verify.check_eerie_cs),
    "ce_column": ("ce_column", verify.check_eerie_he),
    "ch_column": ("ch_column", verify.check_omega_conjugation),
    "rs_rows": ("rs_rows", verify.check_rsk_vs_composition),
    "rs_rows-eerie_cs": ("rs_rows", verify.check_eerie_cs),
}


@pytest.mark.parametrize("op, check", PAIRS.values(), ids=PAIRS)
def test_check_sees_a_doubled_operator(monkeypatch, op, check):
    _, cases, bad = verify.run_check(check, BOUNDS)
    assert cases and not bad, bad
    original = getattr(vertex, op)
    monkeypatch.setattr(vertex, op, lambda *args: 2 * original(*args))
    _, patched_cases, patched_bad = verify.run_check(check, BOUNDS)
    assert patched_cases == cases
    assert patched_bad
    # No image of the doubled operator outlives it.
    monkeypatch.undo()
    assert verify.run_check(check, BOUNDS)[1:] == (cases, [])


def test_failure_report_is_pinned(monkeypatch, capsys):
    # A doubled cm_column fails two identities: CF is its omega-conjugate.
    # The report gives each failing check's first five messages and counts
    # the rest, byte for byte as pinned.
    original = vertex.cm_column
    monkeypatch.setattr(vertex, "cm_column", lambda *args: 2 * original(*args))
    code = cli.main(["verify", "--suite", "identities", "--max-degree", "3"])
    assert code == 1
    want = (Path(__file__).parent / "verify_doubled_cm.txt").read_text()
    assert capsys.readouterr().out == want


# OPERATORS name -> the action-law check that covers it
ACTION_CHECKS = {
    op: check
    for check in verify.SUITES["actions"]
    for op, *_ in verify.ACTION_LAWS[check.check_name]
}


def test_action_laws_cover_the_registry():
    # TX is no adder, and RSK, the k-th power of RS, is checked against
    # composition (check_rsk_vs_composition) rather than by a law of its own.
    assert set(ACTION_CHECKS) == set(vertex.OPERATORS) - {"TX", "RSK"}


@pytest.mark.parametrize("op", sorted(ACTION_CHECKS))
def test_action_check_sees_a_doubled_operator(monkeypatch, op):
    bounds = Bounds(3)
    check = ACTION_CHECKS[op]
    _, cases, bad = verify.run_check(check, bounds)
    assert cases and not bad, bad
    fn_name = vertex.OPERATORS[op][0]
    original = getattr(vertex, fn_name)
    monkeypatch.setattr(vertex, fn_name, lambda *args: 2 * original(*args))
    _, patched_cases, patched_bad = verify.run_check(check, bounds)
    assert patched_cases == cases
    assert any(msg.startswith(f"{op} ") for msg in patched_bad), patched_bad
    monkeypatch.undo()
    assert verify.run_check(check, bounds)[1:] == (cases, [])


def test_replaced_operator_is_the_one_applied(monkeypatch, capsys):
    # apply --op and the action checks both bind the function the module
    # holds when named_operator runs.
    check = ACTION_CHECKS["CS"]
    g = basis_element("s", (2, 1))
    original = vertex.cs_column
    monkeypatch.setattr(vertex, "cs_column", lambda *args: 2 * original(*args))
    assert vertex.named_operator("CS", 1, 2)(g) == 2 * original(1, 2, g)
    assert cli.main(["apply", "--op", "CS", "--a", "1", "--k", "2", "s[2,1]", "--basis", "s"]) == 0
    assert capsys.readouterr().out == "2*s[3,2]\n"
    assert verify.run_check(check, BOUNDS)[2]
    monkeypatch.undo()
    assert vertex.named_operator("CS", 1, 2)(g) == original(1, 2, g)
    assert verify.run_check(check, BOUNDS)[2] == []


# mutant -> each sub-multiset table as the faulty kernel reads it: without its
# row rho = mu, or with every z ratio read as 1
KERNEL_MUTANTS = {
    "dropped-row": lambda mu, table: {rho: row for rho, row in table.items() if rho != mu},
    "ratio-ignored": lambda mu, table: {rho: (nu, 1) for rho, (nu, _) in table.items()},
}


@pytest.mark.parametrize("rows", KERNEL_MUTANTS.values(), ids=KERNEL_MUTANTS)
@pytest.mark.parametrize(
    "check", [ACTION_CHECKS["CS"], verify.check_omega_conjugation], ids=["actions", "omega"]
)
def test_checks_see_a_faulty_kernel(monkeypatch, rows, check):
    # Every operator sums through ring._perp_sum, which builds its coproduct
    # table from ring._sub_table.  The faulty kernel reads altered tables;
    # by and image are evaluated first, so no cached conversion reads them,
    # and the literal sums in oracles skew by ring.skew, a route of their own.
    _, cases, bad = verify.run_check(check, BOUNDS)
    assert cases and not bad, bad
    kernel, sub_table = ring._perp_sum, ring._sub_table

    def faulty(g, lams, by, image):
        lams = list(lams)
        bys, images = {lam: by(lam) for lam in lams}, {lam: image(lam) for lam in lams}
        with monkeypatch.context() as patch:
            patch.setattr(ring, "_sub_table", lambda mu: rows(mu, sub_table(mu)))
            return kernel(g, lams, bys.__getitem__, images.__getitem__)

    monkeypatch.setattr(vertex, "_perp_sum", faulty)
    _, patched_cases, patched_bad = verify.run_check(check, BOUNDS)
    assert patched_cases == cases
    assert patched_bad
    monkeypatch.undo()
    assert verify.run_check(check, BOUNDS)[1:] == (cases, [])


# The import graph that keeps the second routes apart from the routes they
# check; symfunc.oracles states the four rules.
SRC = Path(__file__).resolve().parents[1] / "src" / "symfunc"
LIBRARY = ("partitions", "names", "ring", "vertex", "tableaux", "expressions", "__init__")
SECOND_ROUTES = ("oracles", "polyoracle", "verify")
POLYORACLE_RING_NAMES = ("BASES", "SymFunc", "basis_element")


def _symfunc_imports(tree):
    """(module, name) for each import of a symfunc module in ``tree``, at
    any depth; name is None where the module itself is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("symfunc."):
                    yield alias.name.removeprefix("symfunc."), None
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module or ""
            elif node.module == "symfunc" or (node.module or "").startswith("symfunc."):
                source = node.module.removeprefix("symfunc").removeprefix(".")
            else:
                continue
            for alias in node.names:
                yield (alias.name, None) if source == "" else (source, alias.name)


def independence_violations(sources):
    """One message per broken rule, naming the module and the import, for
    ``sources``, a dict {module name: source text} of src/symfunc."""
    out = []
    for module, text in sources.items():
        tree = ast.parse(text)
        for source, name in _symfunc_imports(tree):
            what = source if name is None else f"{name} from {source}"
            if module in LIBRARY and source in SECOND_ROUTES:
                out.append(f"rule 1: {module} imports {what}")
            if module == "cli" and source in ("oracles", "polyoracle"):
                out.append(f"rule 1: {module} imports {what}")
            if module == "oracles" and source == "vertex":
                out.append(f"rule 2: {module} imports {what}")
            if module == "polyoracle" and source == "ring" and name not in POLYORACLE_RING_NAMES:
                out.append(f"rule 4: {module} imports {what}")
        if module in SECOND_ROUTES:
            for node in ast.walk(tree):
                named = (
                    {node.id} if isinstance(node, ast.Name)
                    else {node.attr} if isinstance(node, ast.Attribute)
                    else {node.name, node.asname} if isinstance(node, ast.alias)
                    else set()
                )
                if "_perp_sum" in named:
                    out.append(f"rule 3: {module} names _perp_sum")
    return out


# rule -> (module, source appended to it, the message it must raise)
VIOLATIONS = {
    "1 library": (
        "tableaux",
        "from .oracles import syt_count_brute",
        "rule 1: tableaux imports syt_count_brute from oracles",
    ),
    "1 cli": ("cli", "def run():\n    from . import polyoracle", "rule 1: cli imports polyoracle"),
    "2": (
        "oracles",
        "from .vertex import cs_column",
        "rule 2: oracles imports cs_column from vertex",
    ),
    "3": ("verify", "kernel = ring._perp_sum", "rule 3: verify names _perp_sum"),
    "4": ("polyoracle", "from .ring import skew", "rule 4: polyoracle imports skew from ring"),
}


def test_second_routes_stay_apart_from_the_library():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert set(sources) == {*LIBRARY, "cli", *SECOND_ROUTES}
    assert independence_violations(sources) == []
    # the walker sees an import inside a function: cli imports verify there
    assert ("verify", None) in set(_symfunc_imports(ast.parse(sources["cli"])))
    for module, line, message in VIOLATIONS.values():
        broken = {**sources, module: f"{sources[module]}\n{line}\n"}
        assert independence_violations(broken) == [message]


FIELDS = (
    "degree", "identity_degree", "a_max", "k_max", "pairs_n", "pairs_k",
    "lemma_n", "lemma_k", "rsform_k", "oracle_vars",
)

# (depth, every range in FIELDS order): the sweeps that
# `symfunc verify --max-degree D` has always run, written out.
SCHEDULE = (
    (0, (0, 0, 2, 2, 6, 3, 1, 3, 2, 2)),
    (1, (1, 1, 2, 2, 6, 3, 2, 3, 2, 2)),
    (2, (2, 2, 2, 2, 6, 3, 3, 3, 2, 2)),
    (3, (3, 3, 2, 2, 6, 3, 4, 3, 2, 3)),
    (4, (4, 4, 2, 2, 6, 3, 5, 3, 2, 4)),
    (5, (5, 5, 2, 2, 7, 3, 6, 3, 2, 5)),
    (6, (6, 6, 3, 4, 8, 5, 7, 4, 3, 6)),
    (7, (7, 6, 3, 4, 9, 5, 8, 4, 3, 6)),
    (8, (8, 6, 3, 4, 10, 5, 8, 4, 3, 6)),
    (9, (9, 6, 3, 4, 11, 5, 8, 4, 3, 6)),
)


@pytest.mark.parametrize("degree, want", SCHEDULE)
def test_bounds_follow_the_pinned_schedule(degree, want):
    bounds = Bounds(degree)
    assert tuple(getattr(bounds, f) for f in FIELDS) == want
    assert sorted(vars(bounds)) == sorted(FIELDS)


def test_catalan_check_reports_both_faults(monkeypatch):
    # One too many pairs is neither the Catalan number nor its frozen value.
    original = tableaux.bounded_height_pairs
    monkeypatch.setattr(tableaux, "bounded_height_pairs", lambda *args: original(*args) + 1)
    _, cases, bad = verify.run_check(verify.check_pairs_catalan, BOUNDS)
    assert bad == [
        f"height-2 count is not Catalan at n={n}; "
        f"height-2 count differs from frozen Catalan value at n={n}"
        for n in range(cases)
    ]


def test_oracle_conversion_report_names_the_monomial(monkeypatch):
    # Realizing h as e breaks h_2 = x1^2 + x1 x2 + x2^2 (h_1 = e_1 and
    # h_11 = e_11 in two variables still hold); the report gives the first
    # differing monomial and both coefficients.
    original = polyoracle.realize
    monkeypatch.setattr(
        polyoracle, "realize", lambda b, lam, v: original("e" if b == "h" else b, lam, v)
    )
    _, _, bad = verify.run_check(verify.check_oracle_conversions, Bounds(2))
    assert bad == ["h_[2] off at monomial (0, 2): direct 0, converted 1"]


def test_oracle_symmetry_report_names_the_swap(monkeypatch):
    # Dropping x2^2 from the realization of h_2 leaves x1^2 + x1 x2, which the
    # swap of x1 and x2 moves; the report names the function and the swap.
    original = polyoracle.realize

    def lopsided(b, lam, v):
        poly = original(b, lam, v)
        return {m: c for m, c in poly.items() if m != (0, 2)} if (b, lam) == ("h", (2,)) else poly

    monkeypatch.setattr(polyoracle, "realize", lopsided)
    _, _, bad = verify.run_check(verify.check_oracle_symmetry, Bounds(2))
    assert bad == ["realization of h_[2] not symmetric in x1,x2"]


def test_jacobi_trudi_check_sees_a_doubled_determinant(monkeypatch):
    # The check compares s with the library's own determinant, so a fault in
    # ring.jacobi_trudi shows in the gate.
    _, cases, bad = verify.run_check(verify.check_jacobi_trudi, Bounds(3))
    assert cases and not bad, bad
    original = verify.jacobi_trudi
    monkeypatch.setattr(verify, "jacobi_trudi", lambda lam: 2 * original(lam))
    _, patched_cases, patched_bad = verify.run_check(verify.check_jacobi_trudi, Bounds(3))
    assert patched_cases == cases
    assert patched_bad


def test_dual_pairing_check_reads_the_dual_basis_table(monkeypatch):
    # The pairing tables come from ring.DUAL_BASIS, the table expand uses, so
    # a wrong dual there is a failed check.
    _, cases, bad = verify.run_check(verify.check_dual_pairings, Bounds(2))
    assert cases and not bad, bad
    monkeypatch.setitem(ring.DUAL_BASIS, "m", "e")
    _, patched_cases, patched_bad = verify.run_check(verify.check_dual_pairings, Bounds(2))
    assert patched_cases == cases
    assert patched_bad


def test_bounds_refuse_a_bad_degree(capsys):
    # the depth is checked where it is owned, before any check runs
    with pytest.raises(ValueError, match="^degree must be >= 0$"):
        verify.run_suites(None, Bounds(-1))
    assert capsys.readouterr().out == ""
    for bad, name in ((True, "bool"), (2.0, "float")):
        with pytest.raises(TypeError, match=f"^degree must be an int, not {name}$"):
            Bounds(bad)
    with pytest.raises(TypeError):
        Bounds()


def test_run_criterion_refuses_an_unknown_number():
    with pytest.raises(ValueError) as caught:
        verify.run_criterion(9)
    assert str(caught.value) == "unknown criterion 9; choose from [1, 2, 3, 4, 5, 6, 7]"
    # True and 1.0 hash as 1, so only the type test keeps them from criterion 1
    for bad, name in ((True, "bool"), (1.0, "float")):
        with pytest.raises(TypeError, match=f"^criterion must be an int, not {name}$"):
            verify.run_criterion(bad)


def test_criterion_fails_on_a_case_count_off_its_pin(monkeypatch):
    # the gate's guard against a shrunken (or grown) sweep: criterion 5 runs
    # its 57 cases, pinned here at 58
    rows = tuple(
        (num, desc, want + (num == 5), checks) for num, desc, want, checks in verify.ACCEPTANCE
    )
    monkeypatch.setattr(verify, "ACCEPTANCE", rows)
    line, ok, failures = verify.run_criterion(5)
    assert "[FAIL]" in line
    assert not ok
    assert failures == ["ran 57 cases, not the pinned 58"]
