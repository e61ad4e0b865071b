"""Command-line interface: analyses and verification suites with deterministic
JSON or TSV reports.

Reports go to standard output and are byte-identical across reruns of the
same invocation; diagnostics (including timing) go to the error stream.
Every numeric value is an exact integer or an exact rational string "p/q".
Exit codes: 0 all runnable checks pass, 1 any check failure, 2 usage error
(any ValueError).  Standard output depends on the command line alone.

``main`` defaults ``OPENBLAS_NUM_THREADS`` to 1 before numpy can load, since
no computation here calls BLAS.

Run as ``python -m roothk.cli`` or as the ``roothk`` script, both through
``run``, the process turns automatic garbage collection off before ``main``
and freezes its heap once ``main`` returns, which spares the command its
generational collections and interpreter teardown its full ones; ``main``
itself leaves the collector alone, so in-process callers are unaffected.
Nothing imported here loads ``fractions``: rationals arrive as exact
numerator/denominator pairs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import __version__
from .errors import DiscriminantTooLargeError, RootHKError
from .exact_linalg import IntMatrix
from .hk_analysis import (
    GENERATOR_ONLY_MAX_RANK,
    RESOLUTION_CITATION,
    RESOLUTION_TABLE,
    analyze,
    brute_force_fixed_point_count,
    fixed_locus_on_abelian,
    freeness_codim_check,
)
from .invariant_theory import invariant_report
from .lattice_tower import tower_for_spec
from .root_data import (
    RootSystemSpec,
    build_root_datum,
    specs_up_to_rank,
    standard_table,
)
from .weyl import DEFAULT_GROUP_CAP, WeylGroup, element_iter, generate_group, group_order_formula

_FIXED_LOCUS_GROUPS = (("A", 1), ("A", 2), ("B", 2), ("A", 3))
_FIXED_LOCUS_DET_BOUND = 8


def _render_value(v):
    if isinstance(v, bool):
        return 1 if v else 0
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return v
    # An exact rational: lattice_tower's Ratio, a numerator/denominator pair.
    try:
        p, q = v.numerator, v.denominator
    except AttributeError:
        raise TypeError(f"report values must be exact integers, rationals or strings: got {type(v)!r}") from None
    return p if q == 1 else f"{p}/{q}"


class CheckRecord:
    def __init__(self, name: str, status: str, values: dict, citation: str = ""):
        self.name = name
        self.status = status  # pass | fail | skipped
        self.values = values
        self.citation = citation

    def rendered_values(self) -> dict:
        return {k: _render_value(v) for k, v in self.values.items()}


class ReportDocument:
    def __init__(self, command: dict):
        self.command = command
        self.checks: list[CheckRecord] = []

    def add(self, name: str, status: str, values: dict, citation: str = "") -> None:
        self.checks.append(CheckRecord(name=name, status=status, values=values, citation=citation))

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "tool_version": __version__,
            "command": self.command,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "values": c.rendered_values(),
                    "citation": c.citation,
                }
                for c in self.checks
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_tsv(self) -> str:
        lines = ["name\tstatus\tvalues\tcitation"]
        for c in self.checks:
            vals = ";".join(f"{k}={v}" for k, v in c.rendered_values().items())
            lines.append(f"{c.name}\t{c.status}\t{vals}\t{c.citation}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_tsv()


# --- subcommand bodies ----------------------------------------------------------


def cmd_analyze(family: str, rank: int, lattice: str, cap: int) -> ReportDocument:
    spec = RootSystemSpec(family, rank)
    doc = ReportDocument(
        command={"command": "analyze", "family": family, "rank": rank, "lattice": lattice}
    )
    verdict = analyze(spec, lattice, cap)
    # Both rows pass only if Schur's cross-check holds between the commutant
    # and the two squares that the form dimension is read from.
    inv = verdict.invariants
    doc.add(
        f"analyze/{spec.label}/irreducible",
        "pass" if inv.irreducible and inv.decomposition_consistent else "fail",
        {"commutant_dim": 1 if inv.irreducible else 0},
    )
    doc.add(
        f"analyze/{spec.label}/symplectic-form-dim",
        "pass" if inv.dim_wedge2_doubled_inv == 1 and inv.decomposition_consistent else "fail",
        {"dim": inv.dim_wedge2_doubled_inv},
    )
    free = verdict.freeness
    if free.status == "skipped":
        doc.add(
            f"analyze/{spec.label}/freeness-codim",
            "skipped",
            {"reason": free.reason},
        )
    else:
        doc.add(
            f"analyze/{spec.label}/freeness-codim",
            "pass",
            {"min_codim_doubled": free.min_codim_doubled},
        )
    doc.add(
        f"analyze/{spec.label}/resolution",
        "pass",
        {"verdict": verdict.resolution.value},
        citation=RESOLUTION_CITATION,
    )
    doc.add(
        f"analyze/{spec.label}/known-model",
        "pass",
        {"lattice": verdict.lattice_label, "model": verdict.known_model or ""},
    )
    return doc


def _add_lemma_row(doc: ReportDocument, spec: RootSystemSpec) -> None:
    """The ``lemma/*`` row of a spec: its invariant dimensions and irreducibility."""
    report = invariant_report(build_root_datum(spec))
    doc.add(
        f"lemma/{spec.label}",
        "pass" if report.passed else "fail",
        {
            "sym2_inv": report.dim_sym2_inv,
            "wedge2_inv": report.dim_wedge2_inv,
            "wedge2_doubled_inv": report.dim_wedge2_doubled_inv,
            "irreducible": report.irreducible,
        },
    )


def cmd_lemma_check(max_rank: int) -> ReportDocument:
    doc = ReportDocument(command={"command": "lemma-check", "max_rank": max_rank})
    for spec in specs_up_to_rank(max_rank):
        _add_lemma_row(doc, spec)
    return doc


def cmd_sublattices(family: str, rank: int) -> ReportDocument:
    spec = RootSystemSpec(family, rank)
    doc = ReportDocument(command={"command": "sublattices", "family": family, "rank": rank})
    try:
        tower = tower_for_spec(spec)
    except DiscriminantTooLargeError as exc:
        doc.add(f"sublattices/{spec.label}", "fail", {"reason": str(exc)})
        return doc
    doc.add(
        f"sublattices/{spec.label}/count",
        "pass",
        {"lattices": len(tower.lattices), "disc_order": tower.disc.order},
    )
    for lat in tower.lattices:
        doc.add(
            f"sublattices/{spec.label}/{lat.label}",
            "pass",
            {
                "index_over_root": lat.index_over_root,
                "subgroup_order": lat.subgroup_order,
                "gram_det": lat.gram_det,
                "primitive_gram_det": lat.primitive_gram_det,
            },
        )
    classes = "|".join(",".join(str(i) for i in cls) for cls in tower.rescaling_classes)
    doc.add(
        f"sublattices/{spec.label}/rescaling-classes",
        "pass",
        {"classes": classes, "inconclusive_pairs": len(tower.inconclusive_pairs)},
    )
    return doc


def _group_under_cap(doc: ReportDocument, name: str, spec: RootSystemSpec, cap: int) -> WeylGroup | None:
    """W of ``spec``, or None after adding ``name`` as a skipped row when its
    order exceeds ``cap``."""
    order = group_order_formula(spec)
    if order > cap:
        doc.add(name, "skipped", {"order": order, "reason": f"order exceeds cap {cap}"})
        return None
    return generate_group(build_root_datum(spec))


def cmd_report(suite: str, cap: int) -> ReportDocument:
    """The default suite, every row computed in this process: the
    generator-only rows first, then the rows that enumerate W (the only ones
    that load numpy), then the cited resolution verdicts."""
    if suite != "default":
        raise ValueError(f"unknown suite {suite!r}; available: default")
    doc = ReportDocument(command={"command": "report", "suite": suite})

    # Invariant dimensions and irreducibility across the whole table.
    for spec in standard_table():
        _add_lemma_row(doc, spec)

    # The A_n towers, read twice: their weight lattices, then their sizes.
    a_towers = [tower_for_spec(RootSystemSpec("A", n)) for n in range(1, 9)]

    # Dual-lattice quotient model for type A.  The weight lattice A_n* is the
    # top of the tower, its form kept as adj(G) over det G = n + 1.  The
    # projections of e_1..e_(n+1) to the sum-zero hyperplane have Gram
    # I - J/(n+1); the partial sums of the first i of them are the
    # fundamental weights, whose Gram, times n + 1, is (n+1) min(i, j) - i j.
    for n, tower in enumerate(a_towers[:6], start=1):
        k = n + 1
        dual = tower.lattices[-1]
        model = IntMatrix(n, n, (k * min(i, j) - i * j for i in range(1, k) for j in range(1, k)))
        cyclic = tower.disc.invariant_factors == (k,)
        gram_match = dual.gram_denominator == k and dual.scaled_gram == model
        doc.add(
            f"dual-quotient/A{n}",
            "pass" if cyclic and gram_match else "fail",
            {"disc_order": tower.disc.order, "cyclic": cyclic, "gram_match": gram_match},
        )

    # Sublattice towers.
    for n, tower in enumerate(a_towers, start=1):
        divisors = sum(1 for d in range(1, n + 2) if (n + 1) % d == 0)
        doc.add(
            f"towers/A{n}",
            "pass" if len(tower.lattices) == divisors else "fail",
            {"lattices": len(tower.lattices), "expected": divisors},
        )
    for n in range(3, 8):
        tower = tower_for_spec(RootSystemSpec("B", n))
        expected = (f"D{n}", f"Z^{n}", f"D{n}*")
        doc.add(
            f"towers/B{n}:D{n}",
            "pass" if tower.labels == expected else "fail",
            {"labels": ",".join(tower.labels)},
        )
    tower_e8 = tower_for_spec(RootSystemSpec("E", 8))
    doc.add(
        "towers/E8",
        "pass" if tower_e8.labels == ("E8",) else "fail",
        {"lattices": len(tower_e8.lattices)},
    )

    # Group orders and freeness, exhaustively where the cap allows.
    for spec in standard_table():
        name = f"freeness/{spec.label}"
        group = _group_under_cap(doc, name, spec, cap)
        if group is None:
            continue
        # Read as the products of two halves of about sqrt(|W|) elements; W is never held.
        check = freeness_codim_check(group)
        doc.add(
            name,
            "pass",
            {
                "order": group.order,
                "enumerated": check.elements,
                "min_codim_doubled": check.min_codim_doubled,
            },
        )

    # Fixed-locus component counts against brute-force torus enumeration.
    for family, rank in _FIXED_LOCUS_GROUPS:
        spec = RootSystemSpec(family, rank)
        group = _group_under_cap(doc, f"fixed-locus/{spec.label}", spec, cap)
        if group is None:
            continue
        compared = 0
        agree = True
        for w in element_iter(group):
            det = (w - IntMatrix.identity(rank)).det()
            if det == 0 or abs(det) > _FIXED_LOCUS_DET_BOUND:
                continue
            entry = fixed_locus_on_abelian(w)
            count = brute_force_fixed_point_count(w, abs(det))
            compared += 1
            if count != entry.component_count:
                agree = False
        doc.add(
            f"fixed-locus/{spec.label}",
            "pass" if agree and compared > 0 else "fail",
            {"elements_compared": compared, "all_equal": agree},
        )

    # Resolution verdicts, a cited lookup.
    for family, verdict in RESOLUTION_TABLE.items():
        doc.add(
            f"resolution/{family}",
            "pass",
            {"verdict": verdict.value},
            citation=RESOLUTION_CITATION,
        )

    return doc

# --- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "tsv"), default="json")
    # Only the subcommands that enumerate groups take the cap.
    capped = argparse.ArgumentParser(add_help=False, parents=[shared])
    capped.add_argument(
        "--group-cap",
        type=int,
        default=DEFAULT_GROUP_CAP,
        help=f"element cap for exhaustive group enumeration (default {DEFAULT_GROUP_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="roothk",
        description="Exact verification toolkit for Weyl-group quotient constructions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_analyze = sub.add_parser("analyze", parents=[capped], help="full verdict for one family and rank")
    p_analyze.add_argument("family", choices=list("ABCDEFG"))
    p_analyze.add_argument("rank", type=int)
    p_analyze.add_argument(
        "--lattice",
        default="root",
        help="lattice selector: root, dual, or index:k into the sublattice tower",
    )

    p_lemma = sub.add_parser("lemma-check", parents=[shared], help="invariant dimensions across the table")
    p_lemma.add_argument("--max-rank", type=int, default=8)

    p_sub = sub.add_parser("sublattices", parents=[shared], help="group-stable lattices between root and dual")
    p_sub.add_argument("family", choices=list("ABCDEFG"))
    p_sub.add_argument("rank", type=int)

    p_report = sub.add_parser("report", parents=[capped], help="run a verification suite")
    p_report.add_argument("--suite", default="default")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Every array here is integer: BLAS is never called, but OpenBLAS starts a
    # thread pool when numpy loads, which doubles that import's time.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic_ns()
    try:
        # Only analyze and report take the cap.
        if getattr(args, "group_cap", 1) <= 0:
            raise ValueError("cap must be positive")
        if args.subcommand == "analyze":
            doc = cmd_analyze(args.family, args.rank, args.lattice, args.group_cap)
        elif args.subcommand == "lemma-check":
            if args.max_rank > GENERATOR_ONLY_MAX_RANK:
                raise ValueError(
                    f"--max-rank {args.max_rank} is over the generator-only cost ceiling "
                    f"GENERATOR_ONLY_MAX_RANK = {GENERATOR_ONLY_MAX_RANK}"
                )
            doc = cmd_lemma_check(args.max_rank)
        elif args.subcommand == "sublattices":
            doc = cmd_sublattices(args.family, args.rank)
        else:
            doc = cmd_report(args.suite, args.group_cap)
    except ValueError as exc:
        print(f"roothk: error: {exc}", file=sys.stderr)
        return 2
    except RootHKError as exc:
        print(f"roothk: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(doc.render(args.format))
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    print(f"roothk: {args.subcommand} finished in {elapsed_ms} ms", file=sys.stderr)
    return 1 if doc.failed else 0


def run() -> int:
    """The program's entry point, for ``python -m roothk.cli`` and the
    ``roothk`` console script alike: ``main()`` with automatic collection
    off, then a freeze of the heap just before the process exits with its
    code."""
    # A command is short, and its cyclic garbage dies with the process; the
    # collections its allocations would trigger cost time and free little.
    gc.disable()
    code = main()
    # Interpreter teardown would otherwise run full collections over every
    # object the imports and caches made; frozen objects are never traversed.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
