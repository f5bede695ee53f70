"""Single-edit source mutants of the builder, the grower and the exact routes,
scored by `validate` and `cross_check` alone.

Run it from the repository root; it runs outside the test suite, which
scores a fixed sample (tests/test_mutants.py):

    PYTHONPATH=src python tests/mutation_sweep.py

Each mutant is one edit of one target function: `<`/`<=`, `>`/`>=`,
`==`/`!=` or `is`/`is not` swapped in a comparison, `+`/`-` swapped in an
operation or augmented assignment, or an int constant raised by 1.  The
mutated function is compiled from its module's source with the edit made in
its syntax tree, executed into a fresh module object that holds the
module's other names, and patched into every package module that holds the
original.  It is then scored over BUILDS:

  caught     `validate` or `cross_check` fails a check on a clean build;
  raises     scoring raises, through an exact route's own self-check, the
             vertex cap, a bad index or the time limit;
  identical  every check passes, and every map, forest, report under the
             negative controls and probed exact value is the original's;
  survives   every check passes, but something probed differs.

mutation_survivors.txt, beside this script, pins each identical mutant and
each accepted survivor by verdict, function, edit and source line, after
review.  The run prints every mutant, then each difference from that list,
and exits 1 if there is one: a mutant that is identical or survives and is
not pinned, or a pinned line that no mutant matches.  Pin a new survivor
only with the reason it is accepted, and never prune the list to get a pass.
"""

from __future__ import annotations

import __future__
import ast
import signal
import sys
import types
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from pathlib import Path

from mosaicforest import forest, mosaic, probability, recurrence, verify
from mosaicforest.recurrence import Geometry, SchlafliSymbol, Series

PINNED = Path(__file__).with_name("mutation_survivors.txt")
TARGETS = {
    mosaic: ("_belt_maps",),
    forest: ("grow",),
    recurrence: ("_pairs", "spectral_constants", "_jump"),
    probability: ("_cascade",),
    verify: ("cross_check",),
}
# every builder branch: p, q >= 4, Euclidean, p = 3 and q = 3, each to a few belts
BUILDS = [(4, 5, 4), (5, 4, 4), (6, 6, 3), (4, 4, 5), (3, 7, 5), (3, 6, 5), (7, 3, 4), (6, 3, 5)]
CAP = 20_000  # a mutant that grows a layer too fast trips it and raises
LEVELS = 30  # exact values are probed on levels 1..LEVELS
SECONDS = 20  # a mutant that runs longer raises

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SIGNS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-",
}


@dataclass(frozen=True)
class Mutant:
    module: str
    function: str
    node: int  # the edited node's place in `ast.walk` order over the function
    slot: int  # which operator of a chained comparison
    edit: str
    line: str  # the source line the edited node starts on, stripped, the node in « »

    @property
    def key(self) -> tuple[str, str, str]:
        """What the pinned list names it by: function, edit and marked line."""
        return self.function, self.edit, self.line


def _function(module: types.ModuleType, name: str) -> tuple[ast.FunctionDef, list[str]]:
    """The module-level def of `name`, parsed afresh, and its module's source lines."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    return fn, source.splitlines()


def _sites(fn: ast.FunctionDef) -> Iterator[tuple[int, int, str, ast.AST]]:
    """(place, slot, edit, node) of every single edit in `fn`."""
    for k, node in enumerate(ast.walk(fn)):
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield k, slot, f"{SIGNS[type(op)]} -> {SIGNS[SWAPS[type(op)]]}", node
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            eq = "=" if isinstance(node, ast.AugAssign) else ""
            yield k, 0, f"{SIGNS[type(node.op)]}{eq} -> {SIGNS[SWAPS[type(node.op)]]}{eq}", node
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield k, 0, f"{node.value} -> {node.value + 1}", node


def _marked(lines: list[str], node: ast.AST) -> str:
    """The line `node` starts on, stripped, with the node's text on it in « »."""
    line = lines[node.lineno - 1].encode("utf-8")  # offsets count UTF-8 bytes
    end = node.end_col_offset if node.end_lineno == node.lineno else len(line)
    head, body, tail = line[: node.col_offset], line[node.col_offset : end], line[end:]
    return (head + "«".encode() + body + "»".encode() + tail).decode("utf-8").strip()


@cache
def mutants() -> tuple[Mutant, ...]:
    """Every mutant, target by target, each in `ast.walk` order."""
    found = []
    for module, names in TARGETS.items():
        for name in names:
            fn, lines = _function(module, name)
            for k, slot, edit, node in _sites(fn):
                found.append(Mutant(module.__name__, name, k, slot, edit, _marked(lines, node)))
    return tuple(found)


def _compiled(m: Mutant) -> types.FunctionType:
    """The function of `m`, with its one edit, executed into a fresh module object."""
    module = sys.modules[m.module]
    fn, _ = _function(module, m.function)
    node = next(islice(ast.walk(fn), m.node, None))
    if isinstance(node, ast.Compare):
        node.ops[m.slot] = SWAPS[type(node.ops[m.slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    code = compile(
        ast.Module(body=[fn], type_ignores=[]), module.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    fresh = types.ModuleType(m.module)
    fresh.__dict__.update(vars(module))
    exec(code, fresh.__dict__)
    return fresh.__dict__[m.function]


def _timeout(signum, frame):
    raise TimeoutError(f"over {SECONDS} s")


def _controls(f: forest.Forest) -> list[forest.Forest]:
    """Forests that `cross_check` must fail: a root level moved on level 1
    and on the outer level, an outer vertex cut from its parent, and the
    outer layer one vertex short."""
    m, top = f.mosaic, f.levels
    controls = []
    for level in (1, top):
        victim = m.layers[level][0]
        moved = list(f.root_level)
        moved[victim] = (moved[victim] + 1) % (top + 1)
        controls.append(forest.Forest(m, f.parent, moved))
    cut = list(f.parent)
    cut[m.layers[top][0]] = None
    controls.append(forest.Forest(m, cut, f.root_level))
    short = mosaic.Mosaic(m.symbol, m.rot, [*m.layers[:-1], m.layers[top][:-1]], m.cells)
    return [*controls, forest.Forest(short, f.parent, f.root_level)]


def _failed(report) -> list[str]:
    return [c.name for c in report.failures()]


def _exact(symbol: SchlafliSymbol) -> tuple:
    """The exact values of `symbol` that the targets feed, on levels up to LEVELS."""
    values = [tuple(recurrence.layer_counts(symbol, LEVELS))]
    values += [recurrence.growth_ratio(symbol, i, s) for s in Series for i in range(1, LEVELS + 1)]
    values += [probability.exact_distribution(symbol, i).weights for i in range(1, 9)]
    if symbol.geometry is Geometry.HYPERBOLIC:
        constants = recurrence.spectral_constants(symbol)
        values += [constants.trace, constants.radicand, *constants.named().values()]
        values += [probability.asymptotic_distribution(constants, 8).weights]
    return tuple(values)


class Sweep:
    """Scores mutants against the unpatched run, whose stages it keeps: a
    mutant is run from the first stage that calls its function."""

    def __init__(self):
        self.maps = self.forests = None
        self.maps, self.forests, self.failed, self.seen = self._run("")

    def _run(self, module: str) -> tuple[list, list, list[str], tuple]:
        maps, forests, failed, seen = self.maps, self.forests, [], []
        if module == mosaic.__name__ or maps is None:
            maps = [mosaic.build(SchlafliSymbol(p, q), b, cap=CAP) for p, q, b in BUILDS]
            failed += [name for m in maps for name in _failed(mosaic.validate(m))]
        seen += [(m.rot, list(m.cells), m.layers) for m in maps]
        if module in (mosaic.__name__, forest.__name__) or forests is None:
            growable = (m for m in maps if m.symbol.q > 3)
            forests = [forest.grow(m, allow_triangles=True) for m in growable]
        seen += [(f.parent, f.root_level) for f in forests]
        for f in forests:
            if f.mosaic.symbol.p > 3:
                failed += _failed(verify.cross_check(f))
                seen += [_failed(verify.cross_check(bad)) for bad in _controls(f)]
        seen += [_exact(SchlafliSymbol(p, q)) for p, q in ((4, 5), (5, 4), (6, 6), (4, 4))]
        return maps, forests, failed, tuple(seen)

    def score(self, m: Mutant) -> tuple[str, str]:
        """Caught, raises, identical or survives, and for raises the exception's name."""
        original = getattr(sys.modules[m.module], m.function)
        patched = _compiled(m)
        held = [
            (mod, name)
            for mod in [v for k, v in sys.modules.items() if k.partition(".")[0] == "mosaicforest"]
            for name, value in vars(mod).items()
            if value is original
        ]
        timed = hasattr(signal, "setitimer")  # Unix; elsewhere a mutant runs unlimited
        handler = signal.signal(signal.SIGALRM, _timeout) if timed else None
        try:
            for mod, name in held:
                setattr(mod, name, patched)
            if timed:
                signal.setitimer(signal.ITIMER_REAL, SECONDS)
            _, _, failed, seen = self._run(m.module)
        except Exception as exc:  # the verdict, not a fault of the sweep
            return "raises", type(exc).__name__
        finally:
            if timed:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, handler)
            for mod, name in held:
                setattr(mod, name, original)
        if failed:
            return "caught", ""
        return ("identical" if seen == self.seen else "survives"), ""


def pinned() -> Counter:
    """The pinned (verdict, function, edit, line) entries, each with its count."""
    rows = PINNED.read_text(encoding="utf-8").splitlines()
    return Counter(tuple(row.split("\t")) for row in rows if row and not row.startswith("#"))


def main() -> int:
    sweep, verdicts, kept = Sweep(), Counter(), Counter()
    if sweep.failed:
        print(f"the unpatched run fails {sweep.failed}", file=sys.stderr)
        return 1
    for m in mutants():
        verdict, raised = sweep.score(m)
        verdicts[m.function, verdict] += 1
        print("\t".join([verdict, *m.key, raised]).rstrip(), flush=True)
        if verdict in ("identical", "survives"):
            kept[(verdict, *m.key)] += 1
    for (function, verdict), count in sorted(verdicts.items()):
        print(f"# {function}: {count} {verdict}")
    expected = pinned()
    for row in sorted((kept - expected).elements()):
        print("not pinned:\t" + "\t".join(row))
    for row in sorted((expected - kept).elements()):
        print("pinned, not found:\t" + "\t".join(row))
    return 0 if kept == expected else 1


if __name__ == "__main__":
    sys.exit(main())
