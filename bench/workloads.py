"""The three seeded benchmark workloads and the oracle that checks each task.

A workload is an endless, seeded stream of tasks.  Tasks come in blocks:
every block holds the same multiset of task kinds (the workload's mix) in
a seeded order, so every run sees the same proportions of light and heavy
work and only the inputs change with the seed.  Each task is one
user-level request to spinorlab, made through attribute lookups on the
package at call time, so the traced run sees every call.

* ``xi_kernel``: point matrices, square checks and kernels at ranks 2..6;
  all ``matrices`` and ``linalg``, no ``blades`` products or ``spin``.
* ``spin_relations``: random spin elements, rotations and Pfaffian
  relations in plain and interleaved signatures of dimension 4..8; all
  ``blades`` and ``spin``, no ``matrices`` or ``linalg``.
* ``cli_mix``: the six CLI subcommands at ranks n <= 4, across output
  formats and modes, plus a fixed share of invalid input.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Iterator, NamedTuple

import oracle
from oracle import require

import spinorlab
import spinorlab.cli


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    """The timed request; returns what ``check`` needs."""
    check: Callable[[Any], bytes]
    """Raises OracleError on a wrong result; returns the canonical output."""
    known_defect: str | None = None
    """Exception type of a documented open defect this task exposes."""


def _rational(rng: random.Random, size: int = 9) -> Fraction:
    return Fraction(rng.randint(-size, size), rng.randint(1, 4))


def _nonzero(rng: random.Random, size: int = 9) -> Fraction:
    while True:
        value = _rational(rng, size)
        if value:
            return value


def _canon(*parts) -> bytes:
    return repr(parts).encode()


def _terms(m) -> dict[int, Fraction]:
    return dict(m.items())


# -- xi_kernel ----------------------------------------------------------------


def square_task(n: int):
    def make(rng: random.Random) -> Task:
        x = [_rational(rng) for _ in range(2 * n + 1)]

        def run():
            xi = spinorlab.build_xi(x)
            xi.verify_square_identity(x)
            return xi

        def check(xi) -> bytes:
            oracle.check_square_identity(x, xi.entries)
            return _canon(xi.entries)

        return Task(f"square_n{n}", run, check)

    return make


def kernel_task(n: int):
    def make(rng: random.Random) -> Task:
        x = oracle.absolute_point(rng, n)

        def check(basis) -> bytes:
            vectors = [b.values for b in basis]
            oracle.check_kernel_basis(x, vectors)
            return _canon(vectors)

        return Task(f"kernel_n{n}", lambda: spinorlab.kernel_spinors(x), check)

    return make


# -- spin_relations -----------------------------------------------------------


#: Two signatures per dimension, one plain and one interleaved.
SIGNATURES = {
    4: ((3, 1, "plain"), (2, 2, "interleaved")),
    5: ((4, 1, "plain"), (3, 2, "interleaved")),
    6: ((4, 2, "plain"), (3, 3, "interleaved")),
    7: ((5, 2, "plain"), (4, 3, "interleaved")),
    8: ((5, 3, "plain"), (4, 4, "interleaved")),
}


def _signature(rng: random.Random, dim: int):
    p, q, ordering = rng.choice(SIGNATURES[dim])
    return spinorlab.Signature(p, q, ordering), oracle.sigmas_of(p, q, ordering == "interleaved")


def spin_element_task(dim: int, k: int):
    def make(rng: random.Random) -> Task:
        sig, sigmas = _signature(rng, dim)
        seed = rng.randrange(1 << 31)

        def check(s) -> bytes:
            terms = _terms(s.value)
            require(oracle.is_spin(terms, sigmas), "random_spin_element returned a non-spin element")
            return _canon(sorted(terms.items()))

        return Task(f"spin_element_d{dim}_k{k}", lambda: spinorlab.random_spin_element(sig, seed, k), check)

    return make


def rotation_task(dim: int):
    def make(rng: random.Random) -> Task:
        sig, sigmas = _signature(rng, dim)
        rotor = oracle.rotor(rng, sigmas, 1, norm_plus=False)
        x = [_rational(rng, 5) for _ in range(dim)]

        def run():
            s = spinorlab.SpinElement(spinorlab.Multivector(sig, rotor))
            return spinorlab.apply_rotation(s, spinorlab.Multivector.vector(sig, x))

        def check(y) -> bytes:
            expected = oracle.rotate(rotor, {1 << i: c for i, c in enumerate(x) if c}, sigmas)
            require(_terms(y) == expected, "rotated vector differs from s x s^-1")
            moved = [expected.get(1 << i, 0) for i in range(dim)]
            require(oracle.vector_form(moved, sigmas) == oracle.vector_form(x, sigmas), "rotation changed (x,x)")
            return _canon(sorted(expected.items()))

        return Task(f"rotation_d{dim}", run, check)

    return make


def relations_task(dim: int):
    def make(rng: random.Random) -> Task:
        sig, sigmas = _signature(rng, dim)
        scalar = _nonzero(rng, 5)
        skew = {pair: _nonzero(rng, 5) for pair in combinations(range(1, dim + 1), 2)}

        def run():
            s = spinorlab.reconstruct_from_low_grade(scalar, skew, sig)
            return s, spinorlab.check_relations(s)

        def check(result) -> bytes:
            s, report = result
            terms = _terms(s.value)
            oracle.check_reconstruction(scalar, skew, dim, terms)
            norm = oracle.spin_norm(terms, sigmas)
            require(report.relations_ok, "check_relations rejects a reconstructed element")
            require(report.norm == norm, "spin norm differs from the signed coordinate sum")
            require(report.spin == (norm in (1, -1)), "spin verdict differs from the norm")
            return _canon(sorted(terms.items()), norm)

        return Task(f"relations_d{dim}", run, check)

    return make


# -- cli_mix ------------------------------------------------------------------


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """One in-process invocation; stdout and stderr stay in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = spinorlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def flat_report(stdout: str, fmt: str) -> dict[str, str]:
    """Key/value view shared by the json, csv and pretty report formats."""
    if fmt == "json":
        return dict(_flatten(json.loads(stdout), ""))
    lines = stdout.splitlines()
    if fmt == "csv":
        pairs = (line.partition(",")[::2] for line in lines[1:])
        return {k: v[1:-1].replace('""', '"') if v.startswith('"') else v for k, v in pairs}
    return dict(line.partition(": ")[::2] for line in lines)


def _flatten(value, prefix: str):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}{key}.")
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from _flatten(item, f"{prefix}{idx}.")
    else:
        yield prefix.rstrip("."), str(value)


def _spinor(report: dict[str, str], prefix: str, n: int) -> list[Fraction]:
    names = ["a" + "".join(str(i + 1) for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    return [Fraction(report[f"{prefix}.{name}"]) for name in names]


def _coords(values) -> str:
    return ",".join(str(v) for v in values)


def cli_task(kind: str, argv: list[str], verify: Callable[[dict[str, str]], None] | None = None):
    """A valid request: exit 0, its report checked in exact mode, stdout hashed."""
    fmt = argv[argv.index("--format") + 1]
    exact = argv[argv.index("--mode") + 1] == "exact"

    def check(result) -> bytes:
        code, stdout, stderr = result
        require(code == 0, f"exit {code}: {stderr.strip()[:200]}")
        if verify is not None and exact:
            verify(flat_report(stdout, fmt))
        return _canon(code, stdout)

    return Task(kind, lambda: run_cli(argv), check)


def rejection_task(kind: str, argv: list[str], known_defect: str | None = None) -> Task:
    """Invalid input: exit 1 with an ``error:`` line and nothing on stdout.

    Rejections add nothing to the digest, so fixing a known defect leaves
    the digest unchanged.
    """

    def check(result) -> bytes:
        code, stdout, stderr = result
        require(code == 1 and not stdout and stderr.startswith("error:"), f"bad input gave exit {code}")
        return b""

    return Task(kind, lambda: run_cli(argv), check, known_defect)


def _style(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("json", "csv", "pretty")), "--mode", rng.choice(("exact", "exact", "float"))]


def cli_classify(rng) -> Task:
    dim = rng.randint(1, 8)
    p = rng.randint(0, dim)
    return cli_task("cli_classify", ["classify", "--p", str(p), "--q", str(dim - p), *_style(rng)])


def cli_xi_symbolic(n: int):
    def make(rng) -> Task:
        def verify(report):
            rows = [k for k in report if k.startswith("rows.") and k.endswith(".0")]
            require(len(rows) == 1 << n, "symbolic point matrix has the wrong size")

        return cli_task(f"cli_xi_symbolic_n{n}", ["xi", "--n", str(n), *_style(rng)], verify)

    return make


def cli_xi_evaluated(n: int):
    def make(rng) -> Task:
        x = [_rational(rng) for _ in range(2 * n + 1)]

        def verify(report):
            size = 1 << n
            rows = [[Fraction(report[f"rows.{r}.{c}"]) for c in range(size)] for r in range(size)]
            oracle.check_square_identity(x, rows)

        argv = ["xi", "--n", str(n), "--x=" + _coords(x), *_style(rng)]
        return cli_task(f"cli_xi_evaluated_n{n}", argv, verify)

    return make


def cli_kernel(n: int):
    def make(rng) -> Task:
        x = oracle.absolute_point(rng, n)

        def verify(report):
            oracle.check_kernel_basis(x, [_spinor(report, f"basis.{k}", n) for k in range(1 << (n - 1))])

        argv = ["kernel", "--n", str(n), "--x=" + _coords(x), *_style(rng)]
        return cli_task(f"cli_kernel_n{n}", argv, verify)

    return make


def _relation_spinor(rng, n: int) -> list[Fraction]:
    """Nonzero scalar: 2^n free coordinates at n = 2, else scalar, singles and pairs."""
    count = 1 << n if n == 2 else 1 + n + n * (n - 1) // 2
    return [_nonzero(rng, 5)] + [_rational(rng, 5) for _ in range(count - 1)]


def _hyperplane_spinor(rng, n: int) -> list[Fraction]:
    """Zero scalar: the wedge of two orthogonal integer vectors of R^(n+1),
    read as grade-2 coordinates after renaming index n+1 to the odd ones."""
    while True:
        u = [rng.randint(-3, 3) for _ in range(n + 1)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
        pivot = next((i for i, c in enumerate(u) if c), None)
        if pivot is None:
            continue
        v[pivot] -= Fraction(sum(p * q for p, q in zip(u, v)), u[pivot])
        a = [Fraction(0)] * (1 << n)
        for i in range(n):
            a[1 << i] = u[i] * v[n] - u[n] * v[i]
            for j in range(i + 1, n):
                a[(1 << i) | (1 << j)] = u[i] * v[j] - u[j] * v[i]
        if any(a):
            return a


def cli_generator(n: int, fallback: bool):
    """Read-off path for a nonzero scalar coordinate; a generator inside
    x0 = 0 (zero scalar) takes the rank-solve fallback."""
    kind = f"cli_generator_{'fallback' if fallback else 'readoff'}_n{n}"

    def make(rng) -> Task:
        a = _hyperplane_spinor(rng, n) if fallback else _relation_spinor(rng, n)

        def verify(report):
            recovered = _spinor(report, "recovered_spinor", n)
            require(oracle.parallel(_spinor(report, "spinor", n), recovered), "round trip lost the spinor ray")

        return cli_task(kind, ["generator", "--n", str(n), "--a=" + _coords(a), *_style(rng)], verify)

    return make


def _small_signature(rng, dim: int):
    p = rng.randint(0, dim)
    interleaved = rng.random() < 0.5
    ordering = spinorlab.INTERLEAVED if interleaved else spinorlab.PLAIN
    return p, dim - p, ordering, oracle.sigmas_of(p, dim - p, interleaved)


def cli_spin_check(dim: int, spin: bool):
    """A rotor, or a rotor with one even coordinate perturbed."""
    kind = f"cli_spin_check_d{dim}_{'spin' if spin else 'perturbed'}"

    def make(rng) -> Task:
        p, q, ordering, sigmas = _small_signature(rng, dim)
        s = oracle.rotor(rng, sigmas, 1, norm_plus=False)
        if not spin:
            mask = rng.choice([m for m in range(1 << dim) if bin(m).count("1") % 2 == 0])
            s[mask] = s.get(mask, 0) + _nonzero(rng, 3)
            s = {m: c for m, c in s.items() if c} or {0: Fraction(1)}
        expected = str(oracle.is_spin(s, sigmas))

        def verify(report):
            require(report["is_spin"] == expected, "spin verdict differs from the reference")

        argv = ["spin-check", "--p", str(p), "--q", str(q), "--ordering", ordering,
                "--s=" + oracle.multivector_text(s), *_style(rng)]
        return cli_task(kind, argv, verify)

    return make


def cli_motion(n: int, target: str, element: str):
    """Motion of an absolute point or a relation spinor by a rotor given as
    text, or by a seeded element of k vector pairs (element 'seed_k<k>')."""
    kind = f"cli_motion_{target}_{element}_n{n}"

    def make(rng) -> Task:
        if element == "rotor":
            s = oracle.rotor(rng, oracle.sigmas_of(n, n, True), 1, norm_plus=True)
            source = ["--s=" + oracle.multivector_text(s)]
        else:
            source = ["--seed", str(rng.randrange(1 << 20)), "--k", element[-1]]
        if target == "points":
            x = oracle.absolute_point(rng, n)
            argv = ["motion", "--n", str(n), *source, "--x=" + _coords(x), *_style(rng)]

            def verify(report):
                y = [Fraction(report[f"y.{i}"]) for i in range(2 * n + 1)]
                require(oracle.form(y) == 0 and any(y), "motion moved the point off the absolute")
        else:
            argv = ["motion", "--n", str(n), *source, "--a=" + _coords(_relation_spinor(rng, n)), *_style(rng)]

            def verify(report):
                require(any(_spinor(report, "a_moved", n)), "motion sent the spinor to zero")

        return cli_task(kind, argv, verify)

    return make


def bad_count(rng) -> Task:
    n = rng.randint(1, 4)
    x = [_rational(rng) for _ in range(2 * n)]
    return rejection_task("bad_count", ["xi", "--n", str(n), "--x=" + _coords(x)])


def bad_token(rng) -> Task:
    x = [str(_rational(rng)) for _ in range(5)]
    x[rng.randrange(5)] = rng.choice(("a", "1.5.2", "x1", "--"))
    return rejection_task("bad_token", ["kernel", "--n", "2", "--x=" + ",".join(x)])


def zero_denominator(rng) -> Task:
    x = [str(_rational(rng)) for _ in range(5)]
    x[rng.randrange(5)] = f"{rng.randint(1, 9)}/0"
    return rejection_task("zero_denominator", ["xi", "--n", "2", "--x=" + ",".join(x)])


def spin_zero_denominator(rng) -> Task:
    """Open defect: the multivector parser lets ZeroDivisionError escape."""
    argv = ["spin-check", "--p", "2", "--q", "0", f"--s={rng.randint(1, 9)}/0 + e12"]
    return rejection_task("spin_zero_denominator", argv, known_defect="ZeroDivisionError")


def odd_spin_candidate(rng) -> Task:
    p, q, ordering, sigmas = _small_signature(rng, rng.randint(2, 5))
    mask = rng.choice([m for m in range(1, 1 << (p + q)) if bin(m).count("1") % 2])
    text = oracle.multivector_text({0: _nonzero(rng), mask: _nonzero(rng)})
    return rejection_task("odd_spin_candidate", ["spin-check", "--p", str(p), "--q", str(q), "--s=" + text])


def non_spin_motion(rng) -> Task:
    n = rng.randint(2, 3)
    text = oracle.multivector_text({0: Fraction(rng.randint(2, 5)), 3: _nonzero(rng, 3)})
    x = oracle.absolute_point(rng, n)
    return rejection_task("non_spin_motion", ["motion", "--n", str(n), "--s=" + text, "--x=" + _coords(x)])


# -- the workloads -------------------------------------------------------------

#: One block of each workload: (task maker, copies per block).
MIXES: dict[str, list[tuple[Callable, int]]] = {
    # The median falls inside square_n3 and the p99 inside kernel_n6, so
    # neither sits on a gap between kinds of different cost.
    "xi_kernel": [
        (kernel_task(2), 12), (square_task(2), 16), (square_task(3), 40), (kernel_task(3), 8),
        (square_task(4), 10), (kernel_task(4), 6), (square_task(5), 5), (square_task(6), 3),
        (kernel_task(5), 3), (kernel_task(6), 3),
    ],
    # The median falls inside relations_d6, whose cost varies least with
    # the inputs, and the p99 inside relations_d8.
    "spin_relations": [
        (spin_element_task(4, 1), 10), (rotation_task(4), 10), (spin_element_task(4, 2), 6),
        (spin_element_task(5, 1), 8), (rotation_task(5), 6), (relations_task(6), 30),
        (spin_element_task(6, 1), 6), (rotation_task(6), 5), (spin_element_task(5, 2), 3),
        (spin_element_task(7, 1), 3), (spin_element_task(6, 2), 2), (rotation_task(8), 3),
        (spin_element_task(8, 1), 3), (relations_task(8), 3),
    ],
    "cli_mix": [
        (cli_classify, 10),
        (cli_xi_symbolic(1), 3), (cli_xi_symbolic(2), 3), (cli_xi_symbolic(3), 2), (cli_xi_symbolic(4), 1),
        (cli_xi_evaluated(1), 3), (cli_xi_evaluated(2), 3), (cli_xi_evaluated(3), 3), (cli_xi_evaluated(4), 2),
        (cli_kernel(1), 3), (cli_kernel(2), 3), (cli_kernel(3), 3), (cli_kernel(4), 2),
        (cli_generator(2, False), 3), (cli_generator(3, False), 3), (cli_generator(4, False), 2),
        (cli_generator(2, True), 2), (cli_generator(3, True), 2), (cli_generator(4, True), 1),
        (cli_spin_check(2, False), 2), (cli_spin_check(3, False), 2), (cli_spin_check(4, False), 1),
        (cli_spin_check(5, False), 1),
        (cli_spin_check(2, True), 2), (cli_spin_check(3, True), 2), (cli_spin_check(4, True), 1),
        (cli_spin_check(5, True), 1), (cli_spin_check(6, True), 1),
        *[(cli_motion(n, target, "rotor"), 2 if n == 2 else 1) for n in (2, 3, 4) for target in ("points", "spinors")],
        *[(cli_motion(n, target, "seed_k1"), 2 if n == 2 else 1) for n in (2, 3) for target in ("points", "spinors")],
        # the heaviest kind, at 2% of the block so that the p99 falls inside it
        (cli_motion(4, "points", "seed_k1"), 2), (cli_motion(4, "spinors", "seed_k1"), 1),
        *[(cli_motion(n, target, "seed_k2"), 1) for n in (2, 3) for target in ("points", "spinors")],
        (bad_count, 1), (bad_token, 1), (zero_denominator, 1), (spin_zero_denominator, 1),
        (odd_spin_candidate, 1), (non_spin_motion, 1),
    ],
}


def tasks(workload: str, seed: int) -> Iterator[Task]:
    """Endless seeded task stream; equal seeds give equal tasks."""
    rng = random.Random(f"{workload}:{seed}")
    block = [make for make, copies in MIXES[workload] for _ in range(copies)]
    while True:
        rng.shuffle(block)
        for make in block:
            yield make(rng)
