"""Mutation census of the default suite: which one-site errors its checks see.

    python tests/census.py --out CENSUS.json [--root CHECKOUT] [--function MODULE.NAME ...]

Not a test: pytest does not collect this file, and a full census takes
several minutes. The method:

- The operators swap + and -, < and <=, > and >=, == and !=, ``and`` and
  ``or``; turn * into / and // into *; drop a unary minus; and turn an int
  constant 0, 1 or 2 into its successor. The binary ones apply to
  augmented assignments too.
- Only lines that ``run_suite(SuiteConfig(seed=0))`` executes are mutated,
  in the nine library modules (``MODULES``), not in ``harness.py``. The
  executed lines come from one traced run of the suite, after the import.
- The sites of each module are listed in source order, and 15 of them are
  drawn with a fresh ``random.Random(0)`` per module.
- With ``--function MODULE.NAME`` (repeatable; a method is
  ``MODULE.Class.method``, and ``harness`` may be named too), every site
  on the executed lines of each named function runs, in place of the
  module sample, and the counts are kept per function.
- Each mutant is the module's syntax tree with one site changed, written
  back with ``ast.unparse`` into a copy of the checkout's ``src/``. It runs
  ``run_suite(SuiteConfig(seed=0))`` in a fresh process with one BLAS
  thread and a timeout of ``TIMEOUT``, 90 s.

A mutant is ``killed`` when the report holds a FAIL record, ``crash`` when
the import or ``run_suite`` raises, and ``hang`` when it times out. When
all the checks pass, it is ``accounting`` if the report's draw accounting
moved, and ``survived`` if not. The draw accounting is what
``tests/test_harness.py::test_the_default_suite_keeps_its_draw_accounting``
hashes: the report without its run times and residuals, so its counts,
retries by cause, statements and verdicts. The suite retries a draw that
raises ``TransversalityError``, so an error that only moves retries shows
there and in no verdict. The output holds the counts per module and
every mutant with its outcome.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

MODULES = ("brackets", "chords", "fields", "geometry", "grassmann", "holonomy", "lierep", "phasespace", "strings")
PER_MODULE = 15
TIMEOUT = 90  # seconds per mutant
OUTCOMES = ("killed", "crash", "hang", "accounting", "survived")

_SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.FloorDiv: ast.Mult,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.And: ast.Or,
    ast.Or: ast.And,
}

# run the default suite and print each check's verdict and error, then the
# report as test_the_default_suite_keeps_its_draw_accounting hashes it
RUNNER = """
import json
from stringtop.harness import SuiteConfig, run_suite, strip_runtime

report = run_suite(SuiteConfig(seed=0))
accounting = strip_runtime(report.to_json_obj())
for record in accounting["checks"]:
    del record["max_residual"]
print(json.dumps({r.check: [r.passed, r.error] for r in report.records}))
print(json.dumps(accounting, sort_keys=True))
"""


def executed_lines(src: Path, modules) -> dict[str, set[int]]:
    """The lines of each module that the default suite executes, by module name."""
    sys.path.insert(0, str(src))
    from stringtop.harness import SuiteConfig, run_suite

    files = {str((src / "stringtop" / f"{name}.py").resolve()): name for name in modules}
    lines = {name: set() for name in modules}

    def local(frame, event, arg):
        if event == "line":
            lines[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(tracer)
    try:
        report = run_suite(SuiteConfig(seed=0))
    finally:
        sys.settrace(None)
    if not report.passed:
        raise SystemExit("error: the unmutated suite does not pass")
    return lines


def function_lines(tree: ast.Module, qualname: str) -> set[int]:
    """The lines of the function ``qualname`` (``Class.method`` for a method)."""
    node = tree
    for part in qualname.split("."):
        found = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part]
        if not found:
            raise SystemExit(f"error: no function {qualname}")
        node = found[0]
    return set(range(node.lineno, node.end_lineno + 1))


def sites(tree: ast.Module, lines: set[int]) -> list[tuple]:
    """Every mutation site on the given lines, in source order: (line, col,
    end line, end col, what, index), index naming the operator of a
    comparison chain."""
    out = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) not in lines:
            continue
        where = (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
            out.append((*where, type(node.op).__name__, 0))
        elif isinstance(node, ast.Compare):
            out.extend((*where, type(op).__name__, i) for i, op in enumerate(node.ops) if type(op) in _SWAPS)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            out.append((*where, "USub", 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1, 2):
            out.append((*where, f"int {node.value}", 0))
    return sorted(out)


class _Mutate(ast.NodeTransformer):
    def __init__(self, site: tuple):
        self.site, self.done = site, False

    def generic_visit(self, node):
        node = super().generic_visit(node)
        where = tuple(getattr(node, a, None) for a in ("lineno", "col_offset", "end_lineno", "end_col_offset"))
        if self.done or where != self.site[:4]:
            return node
        what, index = self.site[4:]
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op).__name__ == what:
            node.op = _SWAPS[type(node.op)]()
        elif isinstance(node, ast.Compare) and type(node.ops[index]).__name__ == what:
            node.ops[index] = _SWAPS[type(node.ops[index])]()
        elif isinstance(node, ast.UnaryOp) and what == "USub":
            node = node.operand
        elif isinstance(node, ast.Constant) and what == f"int {node.value}":
            node = ast.Constant(node.value + 1)
        else:
            return node
        self.done = True
        return node


def mutant_source(source: str, site: tuple) -> str:
    tree = ast.parse(source)
    mutate = _Mutate(site)
    tree = ast.fix_missing_locations(mutate.visit(tree))
    if not mutate.done:
        raise RuntimeError(f"site {site} not found")
    return ast.unparse(tree)


def run_mutant(copy: Path) -> tuple[str, object]:
    """(outcome, detail) of the suite on the checkout ``copy``: ``passed``,
    with the draw accounting, when every check passes."""
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    try:
        done = subprocess.run(
            [sys.executable, "-c", RUNNER], cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "hang", None
    if done.returncode:
        return "crash", (done.stderr.strip().splitlines() or ["?"])[-1]
    *_, verdicts, accounting = done.stdout.splitlines()
    failed = sorted(name for name, (passed, _) in json.loads(verdicts).items() if not passed)
    return ("killed", failed) if failed else ("passed", json.loads(accounting))


def census(root: Path, functions=()) -> dict:
    """The census of the checkout ``root``: the module sample, or every
    site of the named ``MODULE.NAME`` functions."""
    src = root / "src"
    targets = [name.split(".", 1) for name in functions]
    lines = executed_lines(src, sorted({module for module, _ in targets}) if targets else MODULES)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        outcome, unmutated = run_mutant(copy)
        if outcome != "passed":
            raise SystemExit("error: the unmutated suite does not pass in a fresh process")
        # (counts key, module, found sites, drawn sites)
        groups = []
        for module, qualname in targets:
            tree = ast.parse((copy / "stringtop" / f"{module}.py").read_text())
            found = sites(tree, lines[module] & function_lines(tree, qualname))
            groups.append((f"{module}.{qualname}", module, found, found))
        for name in MODULES if not targets else ():
            found = sites(ast.parse((copy / "stringtop" / f"{name}.py").read_text()), lines[name])
            drawn = sorted(random.Random(0).sample(found, min(PER_MODULE, len(found))))
            groups.append((name, name, found, drawn))
        mutants, counts = [], {}
        for key, name, found, drawn in groups:
            path = copy / "stringtop" / f"{name}.py"
            source = path.read_text()
            tally = Counter()
            for site in drawn:
                path.write_text(mutant_source(source, site))
                try:
                    outcome, detail = run_mutant(copy)
                finally:
                    path.write_text(source)
                if outcome == "passed":
                    outcome = "survived" if detail == unmutated else "accounting"
                    # the checks whose draw accounting moved
                    pairs = zip(detail["checks"], unmutated["checks"])
                    detail = [new["check"] for new, old in pairs if new != old] or None
                tally[outcome] += 1
                line = source.splitlines()[site[0] - 1].strip()
                mutant = {"module": name, "site": list(site), "line": line, "outcome": outcome, "detail": detail}
                mutants.append({"function": key, **mutant} if targets else mutant)
                print(key, site[:2], site[4], outcome, detail, file=sys.stderr, flush=True)
            counts[key] = {"sites": len(found), "mutants": len(drawn), **{o: tally[o] for o in OUTCOMES}}
    totals = {o: sum(c[o] for c in counts.values()) for o in ("mutants", *OUTCOMES)}
    return {"counts": counts, "totals": totals, "mutants": mutants}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to mutate")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--function", action="append", default=[], help="MODULE.NAME: run every site of this function (repeatable)"
    )
    args = parser.parse_args(argv)
    result = census(args.root.resolve(), args.function)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["totals"]))


if __name__ == "__main__":
    main()
