"""Mutation census of the default suite: which one-site errors its checks see.

    python tests/census.py --out CENSUS.json [--root CHECKOUT]

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
- Each mutant is the module's syntax tree with one site changed, written
  back with ``ast.unparse`` into a copy of the checkout's ``src/``. It runs
  ``run_suite(SuiteConfig(seed=0))`` in a fresh process with one BLAS
  thread and a timeout of ``TIMEOUT``, 90 s.

A mutant is ``killed`` when the report holds a FAIL record, ``crash`` when
the import or ``run_suite`` raises, ``hang`` when it times out, and
``survived`` when all the checks pass. The output holds the counts per
module and every mutant with its outcome.
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
OUTCOMES = ("killed", "crash", "hang", "survived")

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

# run the default suite and print each check's verdict and error
RUNNER = """
import json
from stringtop.harness import SuiteConfig, run_suite

print(json.dumps({r.check: [r.passed, r.error] for r in run_suite(SuiteConfig(seed=0)).records}))
"""


def executed_lines(src: Path) -> dict[str, set[int]]:
    """The lines of each module that the default suite executes, by module name."""
    sys.path.insert(0, str(src))
    from stringtop.harness import SuiteConfig, run_suite

    files = {str((src / "stringtop" / f"{name}.py").resolve()): name for name in MODULES}
    lines = {name: set() for name in MODULES}

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
    verdicts = json.loads(done.stdout.splitlines()[-1])
    failed = sorted(name for name, (passed, _) in verdicts.items() if not passed)
    return ("killed", failed) if failed else ("survived", None)


def census(root: Path) -> dict:
    src = root / "src"
    lines = executed_lines(src)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if run_mutant(copy)[0] != "survived":
            raise SystemExit("error: the unmutated suite does not pass in a fresh process")
        mutants, counts = [], {}
        for name in MODULES:
            path = copy / "stringtop" / f"{name}.py"
            source = path.read_text()
            found = sites(ast.parse(source), lines[name])
            drawn = sorted(random.Random(0).sample(found, min(PER_MODULE, len(found))))
            tally = Counter()
            for site in drawn:
                path.write_text(mutant_source(source, site))
                try:
                    outcome, detail = run_mutant(copy)
                finally:
                    path.write_text(source)
                tally[outcome] += 1
                line = source.splitlines()[site[0] - 1].strip()
                mutants.append({"module": name, "site": list(site), "line": line, "outcome": outcome, "detail": detail})
                print(name, site[:2], site[4], outcome, detail, file=sys.stderr, flush=True)
            counts[name] = {"sites": len(found), "mutants": len(drawn), **{o: tally[o] for o in OUTCOMES}}
    totals = {o: sum(c[o] for c in counts.values()) for o in ("mutants", *OUTCOMES)}
    return {"counts": counts, "totals": totals, "mutants": mutants}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to mutate")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = census(args.root.resolve())
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["totals"]))


if __name__ == "__main__":
    main()
