"""Seeded task lists for the symfunc benchmark, and the code that runs and
checks one task.

``generate(workload, seed, round_index)`` is a pure function: it uses only
its own random stream and its own partition enumeration, never the library,
so the same seed gives the same inputs on every version of the code under
test.

A run is a sequence of *rounds*, each a task list drawn from the seed and
the round's index.  A round is stratified: the seed draws the partitions,
the parameters within a cost class and the order of the tasks, but every
round holds the same mix of operators, degrees, target bases and pair-count
size classes.  That keeps the cost of a round nearly the same from seed to
seed, so run-to-run spread reflects the code rather than the draw.

Tasks are tuples of plain values, so they compare, print and serialize
without the library.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

WORKLOADS = ("operators", "expand", "pairs", "cli")
BASES = ("p", "m", "e", "h", "s", "f")
DUAL = {"m": "h", "h": "m", "e": "f", "f": "e", "s": "s"}

# operator -> (basis family, vertex function, takes a, takes k, smallest a)
OPERATORS = {
    "CP": ("p", "cp_column", True, True, 0),
    "CH": ("h", "ch_column", False, True, 0),
    "CE": ("e", "ce_column", False, True, 0),
    "RM1": ("m", "rm_row_one", True, False, 1),
    "RMK": ("m", "rm_rows", True, True, 1),
    "RM": ("m", "rm_row", True, False, 1),
    "RF": ("f", "rf_row", True, False, 1),
    "CM": ("m", "cm_column", True, True, 0),
    "CF": ("f", "cf_column", True, True, 0),
    "RS": ("s", "rs_row", True, False, 0),
    "RSK": ("s", "rs_rows", True, True, 0),
    "CS": ("s", "cs_column", True, True, 0),
}
A_MAX, K_MAX = 3, 4

# Cost classes of the operators that take both a and k: (input degree, a*k).
# The output degree is at most d + a*k, and the first conversion at a new
# degree dominates a cold process, so every round visits the same classes.
# The last class is the width-zero or height-zero case (projection,
# vanishing, identity), at a seeded degree.
_AK_CELLS = ((8, 2), (7, 3), (6, 4), (6, 6), (5, 12), (None, 0))
# Monomial and forgotten outputs stop at a*k = 8 (degree 13): the first
# monomial conversion at degree 17 alone takes about a second, which would
# make one task most of a round.
_AK_MAX_MF = 8
# Smallest k of each operator's action law; CP needs an input shorter than k.
_K_MIN = {"CP": 2, "CM": 1, "CF": 1}


def _partitions(n: int, max_length: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_length parts, largest part first."""
    room = n if max_length is None else max_length
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, room: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
            return
        if room == 0:
            return
        for first in range(min(cap, rest), 0, -1):
            rec(rest - first, first, room - 1, prefix + (first,))

    rec(n, n, room, ())
    return out


def _atom(basis: str, lam: tuple[int, ...]) -> str:
    return f"{basis}[{','.join(map(str, lam))}]"


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _operator_task(rng: random.Random, op: str, d: int, ak: int | None) -> tuple:
    """One application of ``op`` to a seeded basis element of degree ``d``;
    ``ak`` is the product a*k for operators that take both, else unused."""
    family, _, takes_a, takes_k, a_min = OPERATORS[op]
    if takes_a and takes_k:
        k_min = _K_MIN.get(op, 0)
        if ak == 0:
            choices = [(0, k) for k in range(max(k_min, 1), K_MAX + 1)] if a_min == 0 else []
            choices += [(a, 0) for a in range(a_min, A_MAX + 1)] if k_min == 0 else []
        else:
            choices = [(a, ak // a) for a in range(1, A_MAX + 1) if ak % a == 0]
            choices = [(a, k) for a, k in choices if k_min <= k <= K_MAX]
        a, k = rng.choice(choices)
        if op == "CP":  # its action law is stated only for inputs shorter than k
            shapes = _partitions(d, max_length=k - 1)
        elif ak:
            # Two rows: the cost of these sums swings with the shape of the
            # input, and the tail percentile with it.
            shapes = [lam for lam in _partitions(d, max_length=2) if len(lam) == 2]
        else:
            shapes = _partitions(d)
        return (op, a, k, family, rng.choice(shapes))
    if takes_k:
        lam = rng.choice(_partitions(d, max_length=K_MAX))
        return (op, None, rng.randint(max(len(lam), 1), K_MAX), family, lam)
    return (op, rng.randint(a_min, A_MAX), None, family, rng.choice(_partitions(d)))


def _operators(rng: random.Random) -> list[tuple]:
    tasks = []
    for op, (family, _, takes_a, takes_k, _) in OPERATORS.items():
        if takes_a and takes_k:
            for d, ak in _AK_CELLS:
                if family in ("m", "f"):
                    ak = min(ak, _AK_MAX_MF)
                tasks.append(_operator_task(rng, op, d or rng.randint(5, 8), ak))
        else:
            for d in (5, 6, 7, 8):
                tasks.append(_operator_task(rng, op, d, None))
    rng.shuffle(tasks)
    return tasks


_COEFFS = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4", "7")


def _expression(rng: random.Random, degree: int, bases: list[str], fixed: bool = False) -> str:
    """A sum of products of basis atoms, every product of total degree
    ``degree``, drawing atom bases from ``bases`` in turn.  The seed draws
    2 or 3 products of 1 to 3 atoms, and the atoms' degrees, unless
    ``fixed``: then product t of three has two atoms, of degrees
    d - d // (t + 2) and d // (t + 2)."""
    text = ""
    for t in range(3 if fixed else rng.randint(2, 3)):
        if fixed:
            cuts = [degree // (t + 2)]
        else:
            cuts = sorted(rng.sample(range(1, degree), rng.randint(1, 3) - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
        atoms = []
        for size in sizes:
            basis = bases.pop(0) if bases else rng.choice(BASES)
            atoms.append(_atom(basis, rng.choice(_partitions(size))))
        coeff = rng.choice(_COEFFS)
        body = "*".join(atoms if coeff == "1" else [coeff] + atoms)
        sign = rng.choice("+-")
        text += (("-" if sign == "-" else "") + body) if t == 0 else f" {sign} {body}"
    return text


# Expressions per (degree, target basis) in an expand round: the first pays
# the cold conversions, the others find them cached.
EXPAND_PER_CELL = 4


def _expand(rng: random.Random) -> list[tuple]:
    # Degrees in rising order, each expanded into every basis, and every
    # product has two atoms.  So each whole-degree conversion is filled
    # once per round, by the expansion that first needs it, and the set of
    # cold fills is the same in every round.
    tasks = []
    for degree in range(8, 14):
        targets = list(BASES) * EXPAND_PER_CELL
        rng.shuffle(targets)
        for target in targets:
            bases = list(BASES)
            rng.shuffle(bases)
            # Three products of two atoms of fixed degrees: the cost of a
            # cached expansion grows with the number of products and atoms,
            # and drawing them (2-3 products of 2-3 atoms) more than doubled
            # the spread of the 90th percentile between seeds; drawing the
            # atoms' degrees as well tripled that of the median.
            expr = _expression(rng, degree, bases, fixed=True)
            tasks.append((expr, target, rng.randrange(1 << 30)))
    return tasks


def _compositions(n: int, k: int) -> int:
    return comb(n + k - 1, k - 1)


def _closed_cost(n: int, k: int) -> float:
    """Rough microseconds of the ``closed`` count: one term per composition
    of n into k parts, each with a k-by-k Vandermonde product."""
    return _compositions(n, k) * (4 + 0.15 * k * k)


def _closed_class(target_us: float, n_max: int = 45) -> list[tuple[int, int]]:
    """(n, k) whose ``closed`` cost is within 15% of ``target_us``."""
    return [
        (n, k)
        for k in range(3, 7)
        for n in range(4, n_max + 1)
        if abs(_closed_cost(n, k) / target_us - 1) <= 0.15
    ]


# Pair-count size classes: (method, how many per round, candidate (n, k)).
# The seed draws within a class; the classes fix the cost of a round.
# ``closed`` results are checked by ``brute``, and ``brute`` results by
# ``closed``, whose cost bounds the ``brute`` class; ``det`` stays at small
# n, where it already takes a tenth of a second.
_PAIR_CLASSES = (
    ("closed", 6, _closed_class(2_000)),
    ("closed", 5, _closed_class(15_000)),
    ("closed", 4, _closed_class(80_000)),
    ("closed", 1, _closed_class(450_000)),
    ("closed", 2, [(n, 2) for n in range(10, 61)]),
    ("brute", 8, _closed_class(10_000, n_max=60)),
    ("det", 1, [(7, 3), (5, 4)]),
    ("det", 1, [(8, 3), (6, 4)]),
    ("det", 1, [(6, 5), (7, 4)]),
)


def _pairs(rng: random.Random) -> list[tuple]:
    tasks = []
    for method, count, candidates in _PAIR_CLASSES:
        for n, k in rng.choices(candidates, k=count):
            tasks.append((n, k, method))
    rng.shuffle(tasks)
    return tasks


# ``closed`` counts that took 137-168 ms each on the baseline machine.  The
# cost estimate puts (14, 6) in the same class, but it took 88 ms, and
# with it the 90th percentile moved with the number of draws that hit it.
_CLI_COUNTS = ((44, 4), (45, 4), (22, 5), (23, 5))

README_EXAMPLES = (
    (("expand", "--basis", "h", "e[2]"), "h[1,1] - h[2]\n"),
    (("apply", "--op", "CS", "--a", "0", "--k", "2", "h[1]^4", "--basis", "s"), "2*s[2,2] + 3*s[3,1] + s[4]\n"),
    (("inner", "h[2,1]", "m[2,1]"), "1\n"),
    (("count", "--n", "4", "--k", "2"), "14\n"),
)


def _cli(rng: random.Random) -> list[tuple]:
    tasks: list[tuple] = [("readme", argv, want) for argv, want in README_EXAMPLES]
    tasks.append(("count", 6, 3, "brute", True))  # README: count --verbose
    tasks.append(("verify",))
    for _ in range(10):
        bases = list(BASES)
        rng.shuffle(bases)
        tasks.append(("expand", _expression(rng, rng.randint(4, 6), bases), rng.choice(BASES)))
    ops = list(OPERATORS)
    rng.shuffle(ops)
    for op in ops:
        task = _operator_task(rng, op, rng.randint(3, 5), rng.choice([0, 2, 4]))
        tasks.append(("apply",) + task + (rng.choice(BASES),))
    for _ in range(10):
        d = rng.randint(3, 6)
        b1, b2 = rng.sample(BASES, 2)
        e1 = _expression(rng, d, [b1, b1, b1])
        e2 = _expression(rng, d, [b2, b2, b2])
        tasks.append(("inner", e1, e2))
    # A fifth of the commands are counts that compute for about 0.15 s on
    # top of the interpreter start, so the 90th percentile falls among them
    # rather than on whichever light commands a burst of load slowed.
    for n, k in rng.choices(_CLI_COUNTS, k=10):
        tasks.append(("count", n, k, "closed", False))
    tasks.append(("count", rng.randint(4, 6), rng.randint(2, 3), "det", False))
    # checked by ``closed``, whose cost the class bounds: at (30, 6) it took 3.6 s
    tasks.append(("count", *rng.choice(_closed_class(10_000, n_max=60)), "brute", False))
    tasks.append(("count", rng.randint(10, 60), 2, "closed", False))
    rng.shuffle(tasks)
    return tasks


def generate(workload: str, seed: int, round_index: int) -> list[tuple]:
    """The task list of round ``round_index`` of ``workload`` for ``seed``.

    A run goes through rounds 0, 1, 2, ... so its inputs are the same for
    the same seed, and its figures average over several draws.
    """
    make = {"operators": _operators, "expand": _expand, "pairs": _pairs, "cli": _cli}
    if workload not in make:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return make[workload](random.Random(f"{workload}:{seed}:{round_index}"))


def task_name(workload: str, index: int, task: tuple) -> str:
    return f"{workload}[{index}] {task!r}"


# ---------------------------------------------------------------------------
# command lines of the cli workload
# ---------------------------------------------------------------------------


def cli_argv(task: tuple) -> list[str]:
    kind = task[0]
    if kind == "readme":
        return list(task[1])
    if kind == "verify":
        return ["verify"]
    # "--" keeps an expression that starts with "-" from reading as an option
    if kind == "expand":
        return ["expand", "--basis", task[2], "--", task[1]]
    if kind == "apply":
        op, a, k, family, lam, basis = task[1:]
        argv = ["apply", "--op", op]
        if a is not None:
            argv += ["--a", str(a)]
        if k is not None:
            argv += ["--k", str(k)]
        return argv + [_atom(family, lam), "--basis", basis]
    if kind == "inner":
        return ["inner", "--", task[1], task[2]]
    if kind == "count":
        n, k, method, verbose = task[1:]
        return ["count", "--n", str(n), "--k", str(k), "--method", method] + (["--verbose"] if verbose else [])
    raise ValueError(f"unknown cli task {task!r}")


def cli_subcommand(task: tuple) -> str:
    return cli_argv(task)[0]


# ---------------------------------------------------------------------------
# running and checking (these need the library)
# ---------------------------------------------------------------------------


class Runner:
    """Runs and checks tasks against one imported copy of the library.

    Every call goes through the library's module attributes at call time,
    so timing wrappers installed over them see the call.
    """

    def __init__(self):
        import symfunc.expressions
        import symfunc.partitions
        import symfunc.ring
        import symfunc.tableaux
        import symfunc.vertex

        self.partitions = symfunc.partitions
        self.ring = symfunc.ring
        self.expressions = symfunc.expressions
        self.vertex = symfunc.vertex
        self.tableaux = symfunc.tableaux

    # -- the call under test ------------------------------------------------

    def prepare(self, workload: str, task: tuple):
        """Inputs of the call under test that are not part of it."""
        if workload == "operators":
            _, _, _, family, lam = task
            return self.ring.basis_element(family, lam)
        return None

    def call(self, workload: str, task: tuple, prepared):
        if workload == "operators":
            op, a, k = task[:3]
            fn = getattr(self.vertex, OPERATORS[op][1])
            args = [x for x, takes in ((a, OPERATORS[op][2]), (k, OPERATORS[op][3])) if takes]
            return fn(*args, prepared)
        if workload == "expand":
            expr, target, _ = task
            g = self.expressions.parse_expression(expr)
            expanded = self.ring.expand(g, target)
            return g, expanded, expanded.to_text()
        if workload == "pairs":
            n, k, method = task
            return self.tableaux.bounded_height_pairs(n, k, method)
        raise ValueError(f"workload {workload!r} has no in-process call")

    def digest(self, workload: str, result) -> str:
        """A text that identifies the result exactly."""
        if workload == "operators":
            return repr(sorted((tuple(lam), str(c)) for lam, c in result.items()))
        if workload == "expand":
            return result[2]
        return str(result)

    # -- checks -------------------------------------------------------------

    def action_law(self, op: str, a, k, family: str, lam: tuple):
        """The image of family_lam under op, as the action laws state it."""
        P = self.partitions
        basis = self.ring.basis_element
        zero = self.ring.SymFunc.zero()
        lam = P.Partition(lam)
        if op in ("CP", "CM", "CF", "CS"):
            col = P.add_columns(lam, a, k)
            return zero if col is None else basis(family, col)
        if op in ("CH", "CE"):
            return basis(family, P.add_columns(lam, 1, k))
        if op in ("RM", "RF"):
            return basis(family, P.insert_parts(lam, P.Partition((a,))))
        if op == "RM1":
            return (1 + P.mult_count(lam, a)) * basis("m", P.insert_parts(lam, P.Partition((a,))))
        if op == "RMK":
            shape = P.insert_parts(lam, P.Partition((a,) * k))
            return P.binomial(P.mult_count(lam, a) + k, k) * basis("m", shape)
        if op in ("RS", "RSK"):
            # RS^k s_lam is the Jacobi-Trudi determinant of (a^k, lam)
            res = P.straighten((a,) * (1 if op == "RS" else k) + tuple(lam))
            return zero if res.is_zero else res.sign * basis("s", res.shape)
        raise ValueError(op)

    def dual_element(self, b: str, lam: tuple):
        if b == "p":
            return self.ring.basis_element("p", lam) * Fraction(1, self.partitions.z_value(lam))
        return self.ring.basis_element(DUAL[b], lam)

    def check(self, workload: str, task: tuple, result) -> str | None:
        """None when the result is right, else what is wrong."""
        if workload == "operators":
            want = self.action_law(*task)
            return None if result == want else "result differs from the action law"
        if workload == "expand":
            g, expanded, text = result
            if self.expressions.parse_expression(text) != g:
                return f"text {text!r} does not parse back to the expanded function"
            terms = expanded.sorted_terms()
            if not terms:
                return None if text == "0" else f"zero function printed as {text!r}"
            lam, c = terms[task[2] % len(terms)]
            pairing = self.ring.inner_product(g, self.dual_element(task[1], lam))
            return None if pairing == c else f"coefficient of {lam} is {c}, pairing gives {pairing}"
        if workload == "pairs":
            n, k, method = task
            other = "closed" if method == "brute" else "brute"
            want = self.tableaux.bounded_height_pairs(n, k, other)
            if result != want:
                return f"{method} gives {result}, {other} gives {want}"
            if k == 2 and result != self.tableaux.catalan(n):
                return f"height-2 count {result} is not catalan({n})"
            return None
        raise ValueError(workload)

    def check_cli(self, task: tuple, code: int, out: str) -> str | None:
        """None when a command's exit code and stdout are right."""
        if code != 0:
            return f"exit code {code}"
        kind = task[0]
        if kind == "readme":
            return None if out == task[2] else f"stdout {out!r}, README says {task[2]!r}"
        if kind == "verify":
            lines = out.splitlines()
            bad = [line for line in lines if not line.startswith("ok ")]
            return None if lines and not bad else f"verify printed {bad[:3] or 'nothing'}"
        if not out.endswith("\n"):
            return f"stdout {out!r} does not end in a newline"
        parse = self.expressions.parse_expression
        if kind == "expand":
            return None if parse(out[:-1]) == parse(task[1]) else f"{out!r} is not the input"
        if kind == "apply":
            op, a, k, family, lam, _ = task[1:]
            want = self.action_law(op, a, k, family, lam)
            return None if parse(out[:-1]) == want else f"{out!r} differs from the action law"
        if kind == "inner":
            # pair the m, e and s expansions against the h, f and s ones
            g1, g2 = parse(task[1]), parse(task[2])
            want = Fraction(0)
            for b in ("m", "e", "s"):
                e1 = self.ring.expand(g1, b).terms
                e2 = self.ring.expand(g2, DUAL[b]).terms
                value = sum((c * e2.get(lam, 0) for lam, c in e1.items()), Fraction(0))
                if b != "m" and value != want:
                    return f"pairing through {b} gives {value}, through m gives {want}"
                want = value
            return None if Fraction(out.strip()) == want else f"{out!r}, dual expansions give {want}"
        if kind == "count":
            n, k, method, verbose = task[1:]
            first, _, rest = out.partition("\n")
            other = "closed" if method == "brute" else "brute"
            want = self.tableaux.bounded_height_pairs(n, k, other)
            if int(first) != want:
                return f"count {first}, {other} gives {want}"
            if k == 2 and want != self.tableaux.catalan(n):
                return f"height-2 count {want} is not catalan({n})"
            if verbose:
                import json

                total = sum(Fraction(t["term"]) for t in json.loads(rest))
                if total != want:
                    return f"verbose terms sum to {total}, not {want}"
            return None
        raise ValueError(f"unknown cli task {task!r}")
