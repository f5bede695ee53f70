"""Build and grow output pinned by sha256, one symbol per builder branch.

A change to how the builder or grower stores its state must leave every
rotation, cell, layer and forest link as it was; these digests say so
without keeping the outputs themselves in the repository.
"""

import hashlib
from itertools import count

import pytest

from mosaicforest import SchlafliSymbol, build, grow
from mosaicforest.errors import SizeLimitError

# sha256 of repr() of the tuple made by _pinned_parts
PINNED = {
    (4, 5, 5): "336847d932f69081075a08352f5a82c831058449edc7e808438336d8319b86ba",
    (5, 4, 5): "2beb2754533c370b671ca0594601f6f604d848516f3a95259622a2098943e520",
    (6, 5, 4): "387864956e32f8db10fdb8d4819859a29a8fd297d661bbc1fb9a830e13a92f43",
    (3, 7, 7): "e25182c78c6047a0a1be4da7d4b3976136992f9d7f47d12eaaa9d01720b2a4b9",
    (3, 8, 5): "83c99417b0c0d2e7e36f5ed08acf410c9fc27256ea25534fba837e1a43f21557",
    (7, 3, 5): "011f319775bc0f38d8afb5b54405a440168154d3aa6e338c53f820652be52252",
    (10, 3, 4): "378cab23a73b51d80b45ed7d38f2c1838d6cb112928fefce69fa663e93ded74a",
    (6, 3, 20): "ac4aee12e142192e6047bc3c63b0952a9243289c510f2d618d3a59501d44edfc",
    (4, 4, 6): "c446eef093f086440bc90b9bcf9626c591af40cbfa2fadbfb8f88bbc609f88b7",
    (3, 6, 6): "8774ad872d4d54c2d7965fdbba0ff7c740f47d796f27de0804f11366e3a4ea57",
}


def _pinned_parts(p: int, q: int, belts: int) -> tuple:
    m = build(SchlafliSymbol(p, q), belts)
    # the lists the digests were recorded from: the cells, each layer's ids, each vertex's layer
    layers = [list(layer) for layer in m.layers]
    level_of = [i for i, layer in enumerate(layers) for _ in layer]
    parts = ([list(r) for r in m.rot], list(m.cells), layers, m.belt_sizes, level_of)
    if q == 3:
        return parts  # no forest grows on a q = 3 mosaic
    f = grow(m, allow_triangles=p == 3)
    return (*parts, f.parent, f.root_level)


@pytest.mark.parametrize("p,q,belts", sorted(PINNED))
def test_build_and_grow_match_pinned_digest(p, q, belts):
    digest = hashlib.sha256(repr(_pinned_parts(p, q, belts)).encode()).hexdigest()
    assert digest == PINNED[p, q, belts]


# sha256 of the builds and refusals of test_every_small_build_matches_the_sweep_digest
SWEEP_DIGEST = "c36c46e318e4b55680ebfa04d0b07428f3fa287ef31381148459d2b675cb8a16"


def test_every_small_build_matches_the_sweep_digest():
    # every non-spherical {p,q} with 3 <= p, q <= 10 at belts 1, 2, ... under
    # a 5000-vertex cap (256 builds), then the SizeLimitError text of each
    # symbol's first refused belt count
    digest = hashlib.sha256()
    for p in range(3, 11):
        for q in range(3, 11):
            if (p - 2) * (q - 2) < 4:
                continue  # spherical
            for belts in count(1):
                try:
                    m = build(SchlafliSymbol(p, q), belts, cap=5000)
                except SizeLimitError as e:
                    digest.update(str(e).encode())
                    break
                parts = ([list(r) for r in m.rot], list(m.cells), m.layers, m.belt_sizes)
                digest.update(repr(parts).encode())
    assert digest.hexdigest() == SWEEP_DIGEST
