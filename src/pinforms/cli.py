"""Command-line interface: censuses, invariants, orbits and property suites.

Output is deterministic: repeated invocations print identical bytes, and
the ``json`` format round-trips losslessly through ``OutputRecord``.
Exit codes: 0 success, 1 genuine property failure or failed internal
consistency check, 2 bad arguments or illegal structure values, 3
documented size limit exceeded.

The ``-t`` theories are the records of ``census.THEORIES``; ``census``, ``orbits``
and ``invariant`` read all that is theory-specific from the record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .census import THEORIES, bordism_class
from .orbits import (
    MAX_BRUTE_DIM,
    isometry_generators,
    isometry_group_order,
    level_set_fit,
    orbit_labels,
    orbit_summary,
)
from .surfaces import (
    InvariantViolation,
    LimitError,
    MAX_NORMAL_FORM_DIM,
    MAX_TABLE_DIM,
    Surface,
    check_dim,
    nonorientable_surface,
    orientable_surface,
)
from .verify import run_suites, summarize

THEORY_BY_NAME = {theory.name: theory for theory in THEORIES}


@dataclass(frozen=True)
class OutputRecord:
    """One command's complete output: metadata, one table, summary lines."""

    command: str
    meta: tuple[tuple[str, "int | str"], ...]
    columns: tuple[str, ...]
    rows: tuple[tuple["int | str | None", ...], ...]
    summary: tuple[tuple[str, "int | str"], ...] = ()

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "meta": dict(self.meta),
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "summary": dict(self.summary),
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        payload = json.loads(text)
        return cls(
            command=payload["command"],
            meta=tuple(payload["meta"].items()),
            columns=tuple(payload["columns"]),
            rows=tuple(tuple(row) for row in payload["rows"]),
            summary=tuple(payload["summary"].items()),
        )


def _cell_text(cell) -> str:
    return "-" if cell is None else str(cell)


def render_table(record: OutputRecord) -> str:
    lines = [f"command: {record.command}"]
    lines += [f"{key}: {value}" for key, value in record.meta]
    if record.columns:
        lines.append("")
        table = [record.columns] + [tuple(_cell_text(c) for c in row) for row in record.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(record.columns))]
        for row in table:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    if record.summary:
        lines.append("")
        lines += [f"{key}: {value}" for key, value in record.summary]
    return "\n".join(lines) + "\n"


def render_csv(record: OutputRecord) -> str:
    buf = io.StringIO()
    buf.write(f"# command: {record.command}\n")
    for key, value in record.meta:
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow(["" if c is None else c for c in row])
    for key, value in record.summary:
        buf.write(f"# {key}: {value}\n")
    return buf.getvalue()


RENDERERS = {
    "table": render_table,
    "csv": render_csv,
    "json": lambda record: record.to_json(),
}


def parse_surface(spec: str) -> Surface:
    """Parse the surface grammar: S:<g> orientable, N:<k> nonorientable."""
    kind, sep, genus = spec.partition(":")
    if sep != ":" or kind not in ("S", "N") or not (genus.isascii() and genus.isdigit()):
        raise ValueError(f"bad surface spec {spec!r}; expected S:<genus> or N:<genus>")
    # no command works beyond the normal-form cap, and validating a form costs O(n**2)
    check_dim(int(genus) * (2 if kind == "S" else 1), MAX_NORMAL_FORM_DIM, "normal-form reduction")
    if kind == "S":
        return orientable_surface(int(genus))
    return nonorientable_surface(int(genus))


def parse_values(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII-digit integers; ``int`` alone would also take signs, spaces and non-ASCII digits."""
    if text == "":
        return ()
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"bad value list {text!r}; expected comma-separated integers")
    return tuple(int(part) for part in parts)


def cmd_census(args) -> tuple[OutputRecord, int]:
    surface = parse_surface(args.surface)
    check_dim(surface.form.dim, MAX_TABLE_DIM, "census enumeration")
    theory = THEORY_BY_NAME[args.theory]
    theory.require(surface, f"{theory.name} structures")
    census = theory.census(surface)
    meta = (("surface", surface.label), ("theory", theory.name), ("structures", sum(census.values())))
    if args.compare:
        columns, rows = theory.compare(surface, census)
    else:
        columns, rows = ("invariant", "count"), tuple((i, census[i]) for i in sorted(census))
    return OutputRecord("census", meta, columns, rows), 0


def cmd_invariant(args) -> tuple[OutputRecord, int]:
    surface = parse_surface(args.surface)
    theory = next(t for t in THEORIES if getattr(args, t.values_name) is not None)
    values = parse_values(getattr(args, theory.values_name))
    theory.require(surface, f"{theory.values_name} values")
    value = bordism_class(surface, theory.structure(surface.form, values)).value
    rows = ((theory.invariant, value),) + theory.invariant_rows(surface, value)
    if args.theory is not None and args.theory != theory.name:
        raise ValueError(f"theory {args.theory} does not match the given structure values")
    meta = (("surface", surface.label), ("theory", theory.name), ("values", ",".join(str(v) for v in values)))
    return OutputRecord("invariant", meta, ("name", "value"), rows), 0


def cmd_orbits(args) -> tuple[OutputRecord, int]:
    surface = parse_surface(args.surface)
    form = surface.form
    theory = THEORY_BY_NAME[args.theory]
    theory.require(surface, f"{theory.name} structures")
    check_dim(form.dim, MAX_TABLE_DIM, "orbit computation")
    generators = isometry_generators(form)
    if form.dim <= MAX_BRUTE_DIM:
        group_desc = f"brute (order {isometry_group_order(form)})"
    else:
        group_desc = f"generated ({len(generators)} generators)"

    invariants = theory.spectrum(form)
    labels = orbit_labels(form, theory.structure, generators)
    members, sizes = orbit_summary(labels)
    _, match = level_set_fit(labels, invariants)

    rows = tuple(
        (index + 1, size, int(invariants[member]))
        for index, (member, size) in enumerate(zip(members, sizes))
    )
    meta = (
        ("surface", surface.label),
        ("theory", theory.name),
        ("group", group_desc),
        ("invariant", theory.invariant),
    )
    summary = (
        ("orbits", len(members)),
        ("level-sets", "PASS" if match else "FAIL"),
    )
    record = OutputRecord("orbits", meta, ("orbit", "size", "invariant"), rows, summary)
    return record, 0 if match else 1


def cmd_verify(args) -> tuple[OutputRecord, int]:
    results = run_suites(args.suites)
    summary = summarize(results)
    rows = tuple((r.suite, r.name, r.status, r.detail) for r in results)
    meta = (("suites", " ".join(args.suites)),)
    record = OutputRecord("verify", meta, ("suite", "check", "status", "detail"), rows, tuple(summary.items()))
    return record, 1 if summary["failed"] else 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="pinforms",
        description="Quadratic-form calculus for spin and pin structures on closed surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", type=Path, default=None, help="also write the output to this file")

    p_census = sub.add_parser("census", help="count structures by invariant value")
    p_census.add_argument("-s", "--surface", required=True, help="surface spec, e.g. S:2 or N:3")
    p_census.add_argument("-t", "--theory", choices=tuple(THEORY_BY_NAME), required=True)
    p_census.add_argument("--compare", action="store_true", help="add closed-form and recursion columns")
    add_common(p_census)
    p_census.set_defaults(handler=cmd_census)

    p_inv = sub.add_parser("invariant", help="invariant of one structure given by basis values")
    p_inv.add_argument("-s", "--surface", required=True)
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("-q", "--refinement", help="comma-separated Z/2 basis values")
    group.add_argument("-e", "--enhancement", help="comma-separated Z/4 basis values")
    p_inv.add_argument("-t", "--theory", choices=tuple(THEORY_BY_NAME), default=None)
    add_common(p_inv)
    p_inv.set_defaults(handler=cmd_invariant)

    p_orb = sub.add_parser("orbits", help="isometry orbits of structures and invariant level sets")
    p_orb.add_argument("-s", "--surface", required=True)
    p_orb.add_argument("-t", "--theory", choices=tuple(THEORY_BY_NAME), required=True)
    add_common(p_orb)
    p_orb.set_defaults(handler=cmd_orbits)

    p_ver = sub.add_parser("verify", help="run named property suites")
    p_ver.add_argument("suites", nargs="*", default=["all"])
    add_common(p_ver)
    p_ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, code = args.handler(args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = RENDERERS[args.format](record)
    if args.out is not None:
        # written before stdout, so a failed write prints nothing but the error
        try:
            args.out.write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
