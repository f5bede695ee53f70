"""Source mutants that a test-only reader, `validate` or `cross_check` must catch.

Each mutant is a patched copy of one function's or method's source, compiled
in its module's namespace.  The export it makes must disagree with the
reader that checks that export, not only with a digest of its bytes, while
the unpatched export agrees.  A mutant of a layer must fail a named check of
`validate` or `cross_check`, or make one of them raise, while the unpatched
run passes both.
"""

import ast
import inspect
import sys
import textwrap
from collections import Counter
from functools import cache

import mutation_sweep
import pytest
import test_mosaic
from test_forest import _dot_counts_and_histograms, _spanning_text_agrees
from test_mosaic import CORRUPTIONS, _check_belts_by_definition, _edge_list_agrees

from mosaicforest import forest as forest_mod
from mosaicforest import mosaic as mosaic_mod
from mosaicforest import probability, quadratic, recurrence
from mosaicforest import verify as verify_mod
from mosaicforest.forest import Forest, grow
from mosaicforest.errors import StructureError
from mosaicforest.mosaic import Mosaic, build
from mosaicforest.quadratic import QuadraticNumber
from mosaicforest.recurrence import SchlafliSymbol, layer_counts
from mosaicforest.verify import cross_check

SYMBOLS = [(4, 5, 5), (5, 4, 5), (4, 7, 4), (6, 6, 3)]


def mutant(func, old, new):
    """`func` compiled from its source with `old` replaced by `new`, in its module's namespace."""
    source = textwrap.dedent(inspect.getsource(func))
    assert old in source, (func.__qualname__, old)
    module = sys.modules[func.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[func.__name__]


@pytest.mark.parametrize("p,q,levels", SYMBOLS)
def test_dot_with_a_and_b_labels_swapped_is_caught(p, q, levels):
    # every A vertex is written as a B root (boxed) and every B as A
    swapped = mutant(Forest.to_dot, "if parent[v] is not None", "if parent[v] is None")
    symbol = SchlafliSymbol(p, q)
    f = grow(build(symbol, levels))
    counts = [(r.a, r.b) for r in layer_counts(symbol, levels)]
    assert _dot_counts_and_histograms(f.to_dot())[0] == counts
    assert _dot_counts_and_histograms(swapped(f))[0] != counts


@pytest.mark.parametrize("p,q,levels", SYMBOLS)  # p = 3 grows no root to connect
def test_connector_to_the_previous_vertex_is_caught(p, q, levels, monkeypatch):
    m = build(SchlafliSymbol(p, q), levels)
    f = grow(m)
    assert _spanning_text_agrees(f.spanning_tree_text(), m)
    backwards = mutant(Forest._connectors, "layer[(k + 1) % m]", "layer[k - 1]")
    monkeypatch.setattr(Forest, "_connectors", backwards)
    assert not _spanning_text_agrees(f.spanning_tree_text(), m)


@pytest.mark.parametrize("p,q,levels", SYMBOLS + [(3, 7, 5), (7, 3, 5)])
def test_edge_list_without_its_order_filter_is_caught(p, q, levels):
    m = build(SchlafliSymbol(p, q), levels)
    assert _edge_list_agrees(m.edge_list_text(), m)
    both_ways = mutant(Mosaic.edge_list_text, " if u < v)", ")")
    assert not _edge_list_agrees(both_ways(m), m)


# p = 3 divides by 1, so each belt gains a cell; p >= 4 leaves a remainder
@pytest.mark.parametrize("p,q,error", [(3, 7, AssertionError), (4, 5, StructureError)])
def test_planted_wrong_belt_formula_fails_the_oracle_and_the_reference(p, q, error, monkeypatch):
    m = build(SchlafliSymbol(p, q), 5)
    _check_belts_by_definition(m)
    planted = mutant(Mosaic.belt_sizes.fget, "divmod(a + b,", "divmod(a + b + 1,")
    monkeypatch.setattr(Mosaic, "belt_sizes", planted)
    with pytest.raises(error):
        _check_belts_by_definition(m)
    with pytest.raises(error):
        test_mosaic.test_build_matches_the_per_cell_reference_builder(p, q)


def _failures(p, q, levels):
    """Names of the failed `validate` and `cross_check` checks.

    Each layer is reached through its module attribute, which a mutant
    replaces; the package's re-exports keep the original functions.
    """
    m = mosaic_mod.build(SchlafliSymbol(p, q), levels)
    checked = (mosaic_mod.validate(m), cross_check(forest_mod.grow(m)))
    return tuple([c.name for c in report.failures()] for report in checked)


# q >= 5: with q = 4 the cascade's ratio q - 3 is 1, and its mutant is equivalent
LAYER_SYMBOLS = [(4, 5, 4), (6, 6, 3)]
SWEEP = "*run[n2 - 1 : inner : n2]"


@pytest.mark.parametrize("p,q,levels", LAYER_SYMBOLS)
@pytest.mark.parametrize(
    "owner,name,old,new,failed",
    [
        # builder: a vertex lists its first tip after its other tips; only
        # validate sees it until verify checks the rotation-forest identity
        pytest.param(
            mosaic_mod, "_belt_maps", f"tip, {SWEEP}", f"{SWEEP}, tip",
            (["rotation-faces"], []), id="builder",
        ),
        # builder: a vertex with no lower neighbour turns from its next
        # neighbour to its previous one until the sweep gives it tips
        pytest.param(
            mosaic_mod, "_belt_maps", "(u, w) if d < 0", "(w, u) if d < 0",
            (["rotation-faces"], []), id="builder-turn",
        ),
        # builder: a fan's closing cell lists its tip before its vertex, so
        # it runs clockwise; cross_check reads no cells and does not see it
        pytest.param(
            mosaic_mod, "_belt_maps", "cells += (v, carry, *top, *back)",
            "cells += (carry, v, *top, *back)",
            (["rotation-faces", "edge-coverage"], []), id="builder-closing-cell",
        ),
        # grower: a new root is filed one level too low
        pytest.param(
            forest_mod, "grow", "root_level[v] = i\n", "root_level[v] = i - 1\n",
            ([], ["histogram"]), id="grower",
        ),
        # level recursion: each step of b, from level 3 on, adds one
        pytest.param(
            recurrence, "_pairs", "c * b - b0", "c * b - b0 + 1",
            ([], ["layer-sizes", "forest-counts", "closed-form", "histogram"]), id="recursion",
        ),
    ],
)
def test_layer_mutant_fails_a_check(owner, name, old, new, failed, p, q, levels, monkeypatch):
    assert _failures(p, q, levels) == ([], [])
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name), old, new))
    assert _failures(p, q, levels) == failed


@pytest.mark.parametrize(
    "p,q,failing",
    [
        (4, 5, ["rotation-faces", "edge-coverage"]),
        (6, 6, ["rotation-faces", "edge-coverage"]),
        (7, 3, ["rotation-faces", "edge-coverage"]),
        (3, 7, ["rotation-faces"]),
    ],
)
def test_closing_cell_mutant_fails_validate_on_one_belt(p, q, failing, monkeypatch):
    # belt 1 is the sweep of the seed, so the builder's closing-cell mutant
    # reaches it: the seed's fan closes clockwise on the sweep's first tip
    def failed():
        return [c.name for c in mosaic_mod.validate(build(SchlafliSymbol(p, q), 1)).failures()]

    assert failed() == []
    old, new = "cells += (v, carry, *top, *back)", "cells += (carry, v, *top, *back)"
    monkeypatch.setattr(mosaic_mod, "_belt_maps", mutant(mosaic_mod._belt_maps, old, new))
    assert failed() == failing


@pytest.mark.parametrize("p,q,levels", [(3, 7, 5), (3, 8, 4)])
def test_triangle_builder_mutant_fails_validate(p, q, levels, monkeypatch):
    # p = 3: a fan's last tip drops its second lower neighbour.  By default
    # grow refuses p = 3, so cross_check has no forest and only validate sees it
    def failed():
        return [c.name for c in mosaic_mod.validate(build(SchlafliSymbol(p, q), levels)).failures()]

    assert failed() == []
    old, new = "(u, w, d, e) if triangles", "(u, w, d) if triangles"
    monkeypatch.setattr(mosaic_mod, "_belt_maps", mutant(mosaic_mod._belt_maps, old, new))
    assert failed() == ["interior-degree", "rotation-faces", "edge-coverage", "euler"]


@pytest.mark.parametrize("p,q,levels", LAYER_SYMBOLS)
@pytest.mark.parametrize(
    "owner,name,old,new,error,message",
    [
        # level recursion: the matrix entry m10 loses its - 1
        pytest.param(
            recurrence, "_start", "(q - 3) * (p - 3) - 1,", "(q - 3) * (p - 3),",
            ArithmeticError, "root_nonroot_limit is not its eigenvector form",
            id="recursion-start",
        ),
        # Q[sqrt d]: a sum subtracts the other's radical part
        pytest.param(
            QuadraticNumber, "_plus", "b * t + e * s", "b * t - e * s",
            ZeroDivisionError, "division by zero element", id="quadratic",
        ),
        # root-level laws: the main root's base takes one ratio too many
        pytest.param(
            probability, "_cascade", "base * next(powers)", "base * next(powers) * ratio",
            ArithmeticError, "exact masses summed to", id="laws",
        ),
        # Q[sqrt d]: a Fraction operand is read upside down
        pytest.param(
            quadratic, "_coerce", "_canonical(value.numerator, 0, value.denominator, 1)",
            "_canonical(value.denominator, 0, value.numerator, 1)",
            ArithmeticError, "step_share is not its eigenvector form", id="coerce-fraction",
        ),
        # Q[sqrt d]: an int operand is read as its negation
        pytest.param(
            quadratic, "_coerce", "_canonical(value, 0, 1, 1)", "_canonical(-value, 0, 1, 1)",
            ArithmeticError, "root_nonroot_limit is not its eigenvector form", id="coerce-int",
        ),
        # eigen data: the radicand that `constants` prints, which no count reads,
        # loses its - 4; cross_check reaches it through verify's own import
        pytest.param(
            verify_mod, "spectral_constants", "radicand=symbol.trace**2 - 4",
            "radicand=symbol.trace**2 + 4",
            ArithmeticError, r"radicand is not \(growth - decay\)\*\*2", id="radicand",
        ),
    ],
)
def test_layer_mutant_makes_cross_check_raise(
    owner, name, old, new, error, message, p, q, levels, monkeypatch
):
    assert _failures(p, q, levels) == ([], [])
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name), old, new))
    with pytest.raises(error, match=message):
        _failures(p, q, levels)


# validate's verdict, mosaic._holds, with one pass dropped, and the
# CORRUPTIONS row that only that pass catches.  Where the pass catches an
# exception (an id out of range, or `.index` finding no entry), validate
# raises once it is gone; every other row then passes every check.
VERDICT_PASSES = [
    pytest.param(
        "if not all(0 <= min(ids)", "if False and all(0 <= min(ids)",
        "vertex-outside-outer-layer", IndexError, id="id-range",
    ),
    pytest.param(
        "if len(outer) < 3 or on_outer.count(1) != len(outer):", "if False:",
        "two-patches-at-a-corner", None, id="distinct-outer",
    ),
    pytest.param(
        "if len(flat) != p * len(cells) or not all(map(p.__eq__, map(len, map(set, cells)))):",
        "if False:", "regroup-cells", None, id="cell-ids",
    ),
    pytest.param(
        "if not all(map(q.__eq__, map(len, islice(rot, inner)))):", "if False:",
        "wrong-symbol", None, id="degree",
    ),
    pytest.param(
        "except ValueError:  # a head that does not list its tail", "except ZeroDivisionError:",
        "outer-step-one-sided", ValueError, id="reverse",
    ),
    pytest.param(
        "if turn[i - 1] != c:", "if False:", "swap-rotation-entries", None, id="face-column",
    ),
    pytest.param("if marks[d]:", "if False:", "dart-marked-twice", None, id="two-cells"),
    pytest.param(
        "if marks.find(0, 0, first[inner]) >= 0:", "if False:",
        "outer-vertex-with-an-interior-id", None, id="unreached-dart",
    ),
    pytest.param(
        "if marks.count(0) != len(outer):", "if False:", "self-loop-in-the-outer-face", None,
        id="unmarked-darts",
    ),
    pytest.param(
        "except ValueError:  # a step that is no dart", "except ZeroDivisionError:",
        "swap-outer-vertices", ValueError, id="outer-step",
    ),
    pytest.param(
        "if marks[there] == marks[back]:", "if False:", "outer-layer-cuts-a-corner", None,
        id="coverage",
    ),
    pytest.param(
        "if n - first[-1] // 2 + len(cells) + 1 != 2:", "if False:", "torus-with-a-hole", None,
        id="euler",
    ),
    pytest.param(
        "return mosaic.symbol.geometry is Geometry.HYPERBOLIC or 0 not in _reached(rot)",
        "return True", "patch-beside-a-torus", None,
        id="connected",
    ),
]


def test_each_verdict_exit_has_its_row():
    # every `return` of the verdict ends one pass, and each `except` is a
    # ValueError guard that returns False: a pass cannot land without its mutant
    tree = ast.parse(textwrap.dedent(inspect.getsource(mosaic_mod._holds)))
    exits = [node for node in ast.walk(tree) if isinstance(node, ast.Return)]
    guards = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    assert [(ast.unparse(g.type), ast.unparse(g.body)) for g in guards] == [
        ("ValueError", "return False")
    ] * len(guards)
    assert len(exits) == len(VERDICT_PASSES)
    assert len({param.values[0] for param in VERDICT_PASSES}) == len(VERDICT_PASSES)


@pytest.mark.parametrize("old,new,row,error", VERDICT_PASSES)
def test_verdict_without_a_pass_misses_its_row(old, new, row, error, monkeypatch):
    corrupt, failing = CORRUPTIONS[row]

    def validated():
        m = build(SchlafliSymbol(4, 5), 3)
        m.cells = list(m.cells)  # the built view is read-only
        corrupt(m)
        return mosaic_mod.validate(m)

    assert [c.name for c in validated().failures()] == failing
    monkeypatch.setattr(mosaic_mod, "_holds", mutant(mosaic_mod._holds, old, new))
    if error is None:
        assert validated().passed
    else:
        with pytest.raises(error):
            validated()


# a fixed sample of the generated mutants (tests/mutation_sweep.py), about
# 20, scored as the sweep scores them, against its pinned list
SWEPT = mutation_sweep.mutants()
SAMPLE = range(0, len(SWEPT), len(SWEPT) // 20)


@cache
def _sweep() -> mutation_sweep.Sweep:
    return mutation_sweep.Sweep()


def test_each_pinned_mutant_is_generated():
    generated = Counter(m.key for m in SWEPT)
    pinned = Counter(row[1:] for row in mutation_sweep.pinned().elements())
    assert not pinned - generated
    assert {row[0] for row in mutation_sweep.pinned()} <= {"identical", "survives"}


@pytest.mark.parametrize("k", SAMPLE, ids=lambda k: f"{SWEPT[k].function}-{k}")
def test_sampled_mutant_scores_as_its_pinned_verdict(k):
    m = SWEPT[k]
    assert not _sweep().failed
    verdict, _ = _sweep().score(m)
    pinned = {row[1:]: row[0] for row in mutation_sweep.pinned()}
    if verdict in ("identical", "survives"):
        assert pinned.get(m.key) == verdict, (verdict, m.key)
    else:
        # a pinned line names a mutant that is kept, unless another one shares its key
        shared = sum(n.key == m.key for n in SWEPT) > 1
        assert shared or m.key not in pinned, (verdict, m.key)
