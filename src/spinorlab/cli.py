"""Command-line front end: reproducible JSON/CSV reports over the library.

Subcommands: classify, xi, kernel, generator, spin-check, motion.  Every
report embeds a "verdicts" object with the invariant checks relevant to
the command; the process exits 0 only when all of them hold.  Exit code 1
flags bad input, 2 a failed invariant.  All randomness is seeded
explicitly, so identical invocations produce byte-identical output.

A report is a tree of dicts and lists whose leaves are exact values,
strings, integers, booleans and None.  It is rendered in one walk: JSON as
one join per container, with sorted keys and with keys and strings escaped
by the C function of ``json``, byte for byte the text of
``json.dumps(indent=2, sort_keys=True)``; CSV and pretty output as one line
per leaf, keyed by its dotted path.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import linalg
from .atlas import descriptor, factorization_class, classify, verify_even_subalgebra_map
from .blades import INTERLEAVED, PLAIN, Multivector, Signature
from .errors import InvariantViolation
from .geometry import (
    SpinorCoords,
    annihilates,
    generator_to_spinor,
    independent_system,
    kernel_spinors,
    motion_on_points,
    motion_on_spinors,
    normalize,
    spinor_images,
)
from .matrices import build_xi, build_xi_symbolic, neutral_signature, quadratic_form
from .spin import SpinElement, check_relations, is_spin, is_spin_plus, random_spin_element

DEFAULT_TOLERANCE = 1e-9
#: The largest --k of a seeded motion, for a 15 s budget at n = 8.  On a random
#: absolute point a cold motion took 5.9-7.3 s at k = 4 and 8.8-9.3 s at k = 5
#: (2-vCPU VM, Python 3.11.7); drawing the element alone grows with k without bound.
MAX_SEED_PAIRS = 4


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes the value in "--x -1,1,0" for an option; "--x=-1,1,0" is one token
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--x", "--a", "--s") and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
        rendered = _render(report, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)
    verdicts = report.get("verdicts", {})
    return 0 if all(bool(v) for v in verdicts.values()) else 2


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="Exact Clifford algebra reports: classification, point matrices, "
        "kernels, plane generators, spin checks, and motions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("classify", help="matrix-algebra structure of Cl(p,q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("xi", help="point matrix of S(n,n), symbolic or evaluated")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=str, default=None, help="comma-separated rationals x0..x2n")
    common(p)
    p.set_defaults(handler=cmd_xi)

    p = sub.add_parser("kernel", help="kernel spinors of an absolute point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=str, required=True)
    common(p)
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("generator", help="plane generator of a spinor, plus round trip")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=str, required=True, help="2^n coords, or scalar,vector,pairs")
    common(p)
    p.set_defaults(handler=cmd_generator)

    p = sub.add_parser("spin-check", help="norm and coordinate relations of an element")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=str, required=True, help="multivector text, e.g. '3/5 + 4/5*e12'")
    p.add_argument("--ordering", choices=(PLAIN, INTERLEAVED), default=PLAIN)
    common(p)
    p.set_defaults(handler=cmd_spin_check)

    p = sub.add_parser("motion", help="act on a point or spinor by a spin element")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=str, default=None, help="multivector text in the (n,n) algebra")
    p.add_argument("--seed", type=int, default=None, help="draw the element instead")
    p.add_argument("--k", type=int, default=1, help=f"vector pairs for --seed, at most {MAX_SEED_PAIRS} (n=8 in 15 s)")
    p.add_argument("--x", type=str, default=None)
    p.add_argument("--a", type=str, default=None)
    common(p)
    p.set_defaults(handler=cmd_motion)

    return parser


# -- command handlers ---------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> dict:
    sig = Signature(args.p, args.q)
    report = descriptor(sig)
    direct = classify(sig)
    verdicts = {
        "dimension_identity": direct.real_dimension == 1 << sig.dim,
    }
    if sig.dim % 2 == 0 and sig.dim > 0:
        via_factors = factorization_class(sig)
        verdicts["factorization_matches"] = (
            via_factors.ring,
            via_factors.size,
            via_factors.multiplicity,
        ) == (direct.ring, direct.size, direct.multiplicity)
    if 1 <= sig.dim <= 8:
        verdicts["even_map_multiplicative"] = verify_even_subalgebra_map(sig)
    report["verdicts"] = verdicts
    return report


def cmd_xi(args: argparse.Namespace) -> dict:
    symbolic = build_xi_symbolic(args.n)  # decides the symbolic Xi^2 = Q(x) I once per rank
    if args.x is None:
        report = symbolic.to_json()
    else:
        x = _parse_coords(args.x, 2 * args.n + 1)
        evaluated = build_xi(x)
        form_value = evaluated.verify_square_identity(x)
        report = evaluated.to_json()
        report.update(x=x, form_value=form_value)
    report.update(symbolic=args.x is None, verdicts={"square_identity": True})
    return report


def cmd_kernel(args: argparse.Namespace) -> dict:
    x = _parse_coords(args.x, 2 * args.n + 1)
    basis = kernel_spinors(x)  # decides Q(x) = 0, or raises
    return {
        "n": args.n,
        "x": list(x),
        "form_value": Fraction(0),
        "kernel_dimension": len(basis),
        "basis": [vec.to_json() for vec in basis],
        "verdicts": {
            "point_on_absolute": True,
            "dimension_is_2_pow_n_minus_1": len(basis) == 1 << (args.n - 1),
            "basis_annihilated": annihilates(x, *basis),
        },
    }


def cmd_generator(args: argparse.Namespace) -> dict:
    spinor = _parse_spinor(args.n, args.a)
    generator = independent_system(spinor)  # decides that the spinor is pure, or raises
    recovered = generator_to_spinor(generator)
    return {
        "n": args.n,
        "spinor": spinor.to_json(),
        "generator": generator.to_json(),
        "row_masks": list(generator.row_masks),
        "recovered_spinor": recovered.to_json(),
        "normalization": normalize(spinor).to_json(),
        "verdicts": {
            "relations_hold": True,
            "projective_dimension_n_minus_1": generator.projective_dimension == args.n - 1,
            "basis_inside_absolute": True,  # generator_to_spinor decided it, or raised
            "roundtrip_recovers_ray": _parallel(recovered.values, spinor.values),
        },
    }


def cmd_spin_check(args: argparse.Namespace) -> dict:
    sig = Signature(args.p, args.q, args.ordering)
    element = SpinElement(Multivector.from_text(sig, args.s))
    relation_report = check_relations(element)  # keeps N(s) and, with a nonzero scalar, the verdict
    report = relation_report.to_json()
    spin = is_spin(element)
    lipschitz = element.lipschitz()
    report.update(
        {
            "p": args.p,
            "q": args.q,
            "ordering": args.ordering,
            "element": element.value.to_text(),
            "lipschitz": lipschitz,
            "is_spin": spin,
            "is_spin_plus": is_spin_plus(element),
            "verdicts": {"predicates_consistent": spin == (lipschitz and relation_report.spin)},
        }
    )
    return report


def cmd_motion(args: argparse.Namespace) -> dict:
    if (args.s is None) == (args.seed is None):
        raise ValueError("provide exactly one of --s and --seed")
    if (args.x is None) == (args.a is None):
        raise ValueError("provide exactly one of --x and --a")
    if args.seed is not None and args.k > MAX_SEED_PAIRS:
        raise ValueError(f"--k must be at most {MAX_SEED_PAIRS}, got {args.k}")
    sig = neutral_signature(args.n)
    if args.s is not None:
        element = SpinElement(Multivector.from_text(sig, args.s))
    else:
        element = random_spin_element(sig, args.seed, args.k, norm_plus=True)
    report: dict = {
        "n": args.n,
        "element": element.value.to_text(),
        "seed": args.seed,
    }
    verdicts: dict = {}
    if args.x is not None:
        x = _parse_coords(args.x, 2 * args.n + 1)
        y = motion_on_points(element, x)
        report["x"] = list(x)
        report["y"] = y
        form_value = quadratic_form(x)
        verdicts["form_preserved"] = quadratic_form(y) == form_value
        if form_value == 0 and any(x):
            # s x = y s is exact and E_0 central, so Xi(y) rep(s) = rep(s) Xi(x): Xi(y) is similar to the checked Xi(x)
            mapped = spinor_images(element.value, kernel_spinors(x))
            rows = [[vec._numerators.get(r, 0) for r in range(1 << args.n)] for vec in mapped]  # scaled rows, same rank
            full_rank = linalg.rank(rows) == 1 << (args.n - 1)
            verdicts["kernel_equivariance"] = full_rank and annihilates(y, *mapped)
    else:
        spinor = _parse_spinor(args.n, args.a)
        moved = motion_on_spinors(element, spinor)
        report["a"] = spinor.to_json()
        report["a_moved"] = moved.to_json()
        if spinor.satisfies_relations():
            verdicts["image_satisfies_relations"] = moved.satisfies_relations()
    report["verdicts"] = verdicts
    return report


# -- input parsing --------------------------------------------------------------


def _parse_rationals(text: str, what: str) -> list[Fraction]:
    try:
        return [Fraction(token.strip()) for token in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}")


def _parse_coords(text: str, expected: int) -> list[Fraction]:
    values = _parse_rationals(text, "coordinates")
    if len(values) != expected:
        raise ValueError(f"expected {expected} coordinates, got {len(values)}")
    return values


def _parse_spinor(n: int, text: str) -> SpinorCoords:
    values = _parse_rationals(text, "spinor coordinates")
    full = 1 << n
    low = 1 + n + n * (n - 1) // 2
    if len(values) == full:
        return SpinorCoords(n, values)
    if len(values) == low != full:
        pairs = dict(zip(combinations(range(1, n + 1), 2), values[1 + n :]))
        return SpinorCoords.from_low_grade(n, values[0], values[1 : 1 + n], pairs)
    raise ValueError(
        f"spinor for rank {n} needs {full} coordinates "
        f"(or {low} low-grade ones: scalar, singles, ordered pairs)"
    )


def _parallel(u: list[Fraction], v: list[Fraction]) -> bool:
    return any(u) and any(v) and linalg.rank([u, v]) == 1


# -- rendering --------------------------------------------------------------------


def _render(report: dict, args: argparse.Namespace) -> str:
    """The report as text: each container is joined once, with its exact
    leaves turned into text, or into floats under --mode float, as it is
    reached.  On leaves of type ``str``, ``int``, ``bool``, ``None`` and
    ``Fraction``, the JSON output is ``json.dumps(indent=2, sort_keys=True)``'s,
    byte for byte."""
    if args.mode == "exact":
        number = str
    else:
        tol = args.tol

        def number(value: Fraction) -> str:
            try:
                approx = value.numerator / value.denominator  # float(value), without its Python frame
            except OverflowError:
                raise ValueError("a value exceeds the float range; use --mode exact") from None
            return "0.0" if abs(approx) < tol else repr(approx)

    if args.format == "json":
        texts = {**_LEAF_TEXTS, Fraction: number if args.mode == "float" else '"%s"'.__mod__}
        return _json(report, "\n", texts) + "\n"
    lines = ["key,value"] if args.format == "csv" else []
    _flatten(report, number, "", "," if args.format == "csv" else ": ", lines)
    return "\n".join(lines) + "\n"


#: The JSON text of a leaf by its type, as ``json.dumps`` writes it.
_LEAF_TEXTS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value, pad: str, texts: dict) -> str:
    """The JSON text of a dict or list at the indent ``pad``, a newline and
    two spaces per level.  A container is one join of its items' texts, with
    the keys of a dict sorted and escaped by the C encoder of ``json``.  A
    leaf is written by ``texts``, looked up by its exact type inside its
    container's loop, so that no Python frame is spent on a string, integer,
    boolean, None or exact-mode leaf; a leaf of any other type raises the
    ``TypeError`` of ``json.dumps``."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key)
            + ": "
            + (write(item) if (write := texts.get(type(item))) else _json(item, inner, texts))
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [write(item) if (write := texts.get(type(item))) else _json(item, inner, texts) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flatten(container, number, prefix: str, sep: str, lines: list[str]) -> None:
    """Append a ``key<sep>value`` line per leaf of a dict or list, keys
    dotted paths in sorted order; a value holding a comma is quoted."""
    keys = sorted(container) if isinstance(container, dict) else range(len(container))
    for key in keys:
        value = container[key]
        if isinstance(value, (dict, list, tuple)):
            _flatten(value, number, f"{prefix}{key}.", sep, lines)
            continue
        text = number(value) if type(value) is Fraction else str(value)
        if "," in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{prefix}{key}".rstrip(".") + sep + text)


if __name__ == "__main__":
    raise SystemExit(main())
