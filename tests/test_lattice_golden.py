"""Golden term tables: the lattice builders must keep emitting the same terms.

Each digest is the sha256 of the ``(index, operator, group, kind)`` rows of
``build_variant(spec)``, in emission order.  The digests were recorded from
the builders before their term shapes moved into data tables, so any change
to a letter, a site, a group, a kind or the order of the terms shows here.
"""

import hashlib

from qsakit.toric_lattice import HoleSpec, LatticeSpec, TwistSpec, build_variant


def _wen(rows, cols, boundary="open", holes=(), twists=()):
    return LatticeSpec(
        rows=rows, cols=cols, boundary=boundary,
        holes=tuple(HoleSpec(tuple(p)) for p in holes),
        twists=tuple(TwistSpec(r, c) for r, c in twists),
    )


def _kitaev(rows, cols, boundary="open", smooth=(), rough=()):
    holes = tuple(HoleSpec(tuple(p), "smooth") for p in smooth)
    holes += tuple(HoleSpec(tuple(p), "rough") for p in rough)
    return LatticeSpec(
        rows=rows, cols=cols, boundary=boundary, model="kitaev_holes", holes=holes,
    )


#: name -> spec
GOLDEN_SPECS = {
    "wen-open-2x2": _wen(2, 2),
    "wen-open-3x3": _wen(3, 3),
    "wen-open-3x4": _wen(3, 4),
    "wen-open-5x6": _wen(5, 6),
    "wen-open-6x5": _wen(6, 5),
    "wen-periodic-2x2": _wen(2, 2, "periodic"),
    "wen-periodic-4x4": _wen(4, 4, "periodic"),
    "wen-periodic-4x6": _wen(4, 6, "periodic"),
    "wen-hole-4x4": _wen(4, 4, holes=[[(1, 1)]]),
    "wen-holes-5x5": _wen(5, 5, holes=[[(0, 0), (0, 1)], [(2, 2)]]),
    "wen-periodic-hole-4x4": _wen(4, 4, "periodic", holes=[[(3, 3)]]),
    "wen-twist-4x4": _wen(4, 4, twists=[(1, 0)]),
    "wen-twist-5x6": _wen(5, 6, twists=[(2, 1)]),
    "wen-twist-hole-4x5": _wen(4, 5, holes=[[(1, 3)], [(0, 2)]], twists=[(1, 0)]),
    "wen-twists-5x5": _wen(5, 5, twists=[(0, 0), (2, 1)]),
    "wen-twists-6x6": _wen(6, 6, twists=[(1, 1), (3, 0)]),
    "kitaev-open-2x2": _kitaev(2, 2),
    "kitaev-open-3x3": _kitaev(3, 3),
    "kitaev-open-3x4": _kitaev(3, 4),
    "kitaev-open-4x5": _kitaev(4, 5),
    "kitaev-periodic-2x2": _kitaev(2, 2, "periodic"),
    "kitaev-periodic-2x4": _kitaev(2, 4, "periodic"),
    "kitaev-periodic-4x4": _kitaev(4, 4, "periodic"),
    "kitaev-smooth-3x4": _kitaev(3, 4, smooth=[[(1, 0)]]),
    "kitaev-rough-3x4": _kitaev(3, 4, rough=[[(1, 2)]]),
    "kitaev-smooth-rough-3x4": _kitaev(3, 4, smooth=[[(1, 0)]], rough=[[(1, 2)]]),
    "kitaev-smooth-rough-4x5": _kitaev(
        4, 5, smooth=[[(0, 0), (2, 3)]], rough=[[(2, 1)], [(3, 0)]],
    ),
    "kitaev-periodic-holes-4x4": _kitaev(
        4, 4, "periodic", smooth=[[(1, 1)]], rough=[[(3, 3)]],
    ),
}

#: sha256 of the term rows per spec, recorded before the shape tables
GOLDEN_DIGESTS = {
    "wen-open-2x2":
        "b307e1d2a8773599b6e9c7124b285435163196d6fb80280cb49ee039fb2be48f",
    "wen-open-3x3":
        "0358493903b0a61d4b50ead05b06a8d394c362f918c5f969c0ebfc811572d683",
    "wen-open-3x4":
        "f5f8e4db3d95e70a7a02eaedfda040ede53b8bac551262db4cbb907291c7e913",
    "wen-open-5x6":
        "f3f073a47b53cf869cf09bc213c884b5e1cf5c4b07f0bd6186d58acf7d422942",
    "wen-open-6x5":
        "4db05032dd1493bfd4bb347717208a3d2de0bce2d97e0522375ec27e98f31d5e",
    "wen-periodic-2x2":
        "2fd2078280f28ce89de37b3ca810a32db848776f54c5ab0372df4911fa2af00b",
    "wen-periodic-4x4":
        "8bf8a2c80e26d0bb244ba3c619abc3f84b894b541e4be52842a22f22d501f640",
    "wen-periodic-4x6":
        "f14ac2fa86053181cb11121216615ae76bdcc9f7f865e86dcf8fec5f8550cdef",
    "wen-hole-4x4":
        "5e0a3af62c3e0946c9d790217ea6f92dcdcd363b2b1bb63e17699aa1233b3b7a",
    "wen-holes-5x5":
        "7dd7aa77a288bc4a912c3af2d852a6ad77d6b97cef4938df619da9e0e7886ee5",
    "wen-periodic-hole-4x4":
        "203e592dd9c9193a5aa466fb6eaa22c4daf1d1e3a3383feaa42e3c548d6d7b1b",
    "wen-twist-4x4":
        "bdf72e26b32ab9f7258342f7c11fdb5aa6fcf4aeb9059a0b98669dc8364cdea4",
    "wen-twist-5x6":
        "e74893e50b0b3454336f5233009a3480429e053f31c73cd4ad8bf0536aaf145d",
    "wen-twist-hole-4x5":
        "6930e08604e44adbe7d96e91097b557e198e09a8ad0786f252141226897763cd",
    "wen-twists-5x5":
        "b79312136c7c1528a6afbfd591ff5a0c1c1171dbd634879a31f193d78ae3cf86",
    "wen-twists-6x6":
        "809029332b0b609b60bf32493f0b5611260d6a3592a5a49e100d5682dc6243a4",
    "kitaev-open-2x2":
        "a63c651dfa7419f5985027a348c8e02b2d4902a288bbd7c6f6c042692ad62200",
    "kitaev-open-3x3":
        "26aa5e6ea01c82550407aad11f2400065431ecd7e38ecf69c6e8990fa163f7ca",
    "kitaev-open-3x4":
        "5aecd57415d7705c05c0de8a7d461caaf9ed88e08d995e2b11ed0f2ece869d08",
    "kitaev-open-4x5":
        "e1dbfdf6def247694cba638e1403986713b2806dd191e1cf1306bd0d9a73ab6b",
    "kitaev-periodic-2x2":
        "996f1d6b8c61c57abc53b846f9f1bc282378698237ac94c996fb88e43986046c",
    "kitaev-periodic-2x4":
        "726c4268c07e10f6e41f34c1d93990a959e16eef016a332f13fa7fb3bddd620c",
    "kitaev-periodic-4x4":
        "e708d1186b9e3686497562bbdc5ecab39a427709aab40ae12c7b9770e192d024",
    "kitaev-smooth-3x4":
        "a7c9a3129a4a0f93be50e8226eed528fc7a8cf20dc15c720c73d06b2f8c87382",
    "kitaev-rough-3x4":
        "9491f9282a1d590e8678b17012551e6218873370e8a9102f5c40b770101d4d76",
    "kitaev-smooth-rough-3x4":
        "4248c8ef4200d84bb739da2e27284780ad675b6b94adfa102dba85907b9d0a04",
    "kitaev-smooth-rough-4x5":
        "7aebc6a5f2f3247992933eb3d211755162d1235342d6b106aad9794bcb239290",
    "kitaev-periodic-holes-4x4":
        "c80773d13799e1bc819ce33dc33ff3c881feba4437d84385819ac0b0060e602e",
}


def _digest(spec):
    rows = [
        (term.index, term.operator.format(), term.group, term.kind)
        for term in build_variant(spec).terms
    ]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def test_lattice_terms_match_pinned_digests():
    got = {name: _digest(spec) for name, spec in GOLDEN_SPECS.items()}
    assert got == GOLDEN_DIGESTS
