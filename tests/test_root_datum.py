"""Root data: Cartan integers, finite Weyl groups, duality, adjoint maps."""

import pytest

from expflag.root_datum import RootDatumError, build_root_datum

PRESETS = ["SL2", "PGL2", "GL2", "SL3", "PGL3", "Sp4", "G2"]

EXPECTED = {
    "SL2": (1, 2, 1),  # rank, |W0|, #positive roots
    "PGL2": (1, 2, 1),
    "GL2": (1, 2, 1),
    "SL3": (2, 6, 3),
    "PGL3": (2, 6, 3),
    "Sp4": (2, 8, 4),
    "G2": (2, 12, 6),
}


@pytest.mark.parametrize("name", PRESETS)
def test_preset_shapes(name):
    rd = build_root_datum(name)
    rank, order, npos = EXPECTED[name]
    assert rd.rank == rank
    assert len(list(rd.weyl_elements())) == order
    assert len(rd.positive_roots) == npos


@pytest.mark.parametrize("name", PRESETS)
def test_cartan_integers(name):
    rd = build_root_datum(name)
    for i in range(rd.rank):
        assert rd.pair(rd.simple_roots[i], rd.simple_coroots[i]) == 2
        for j in range(rd.rank):
            if i != j:
                assert rd.pair(rd.simple_roots[i], rd.simple_coroots[j]) <= 0


@pytest.mark.parametrize("name", PRESETS)
def test_simple_reflections_are_involutions(name):
    rd = build_root_datum(name)
    lam = tuple(range(1, rd.char_lattice_rank + 1))
    for s in rd.simple_reflections:
        assert s.apply_coweight(s.apply_coweight(lam)) == lam


@pytest.mark.parametrize("name", PRESETS)
def test_two_rho_pairs_to_two_on_simples(name):
    rd = build_root_datum(name)
    for cv in rd.simple_coroots:
        assert rd.pair(rd.two_rho, cv) == 2


@pytest.mark.parametrize("name", PRESETS)
def test_longest_element_negates_positives(name):
    rd = build_root_datum(name)
    w0 = rd.longest_element()
    for root in rd.positive_roots:
        img = rd.apply_weight(w0, root)
        assert tuple(-x for x in img) in rd.positive_root_set


@pytest.mark.parametrize("name", ["SL2", "PGL2", "SL3", "Sp4"])
def test_dominance_of_weyl_orbit(name):
    rd = build_root_datum(name)
    lam = tuple(2 for _ in range(rd.char_lattice_rank))
    dominants = {
        v.apply_coweight(lam)
        for v in rd.weyl_elements()
        if rd.is_dominant(v.apply_coweight(lam))
    }
    assert dominants == {lam}


@pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4"])
def test_adjoint_embedding_respects_pairings(name):
    rd = build_root_datum(name)
    adj = rd.adjoint()
    lam = tuple(1 for _ in range(rd.char_lattice_rank))
    lam_adj = rd.to_adjoint_coords(lam)
    for i in range(rd.rank):
        assert rd.pair(rd.simple_roots[i], lam) == adj.pair(
            adj.simple_roots[i], lam_adj
        )


def test_spec_with_an_unknown_key_is_rejected():
    # roots and coroots pair by the dot product; a pairing key is not read,
    # so it must not be accepted and silently ignored
    spec = {"name": "SL2'", "simple_roots": [(1,)], "simple_coroots": [(1,)],
            "pairing": [[2]]}
    with pytest.raises(RootDatumError, match="pairing"):
        build_root_datum(spec)
    sl2 = {"name": "SL2", "simple_roots": [(2,)], "simple_coroots": [(1,)],
           "cartan": [[2]]}
    assert build_root_datum(sl2).cartan == [[2]]


def test_unknown_preset_rejected():
    with pytest.raises(Exception):
        build_root_datum("E9")
