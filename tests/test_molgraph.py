import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (WATER_RECORD, json_values, random_molecule, toy_corpus,
                      water_graph)
from mjae.molgraph import (CHARGES, ELEMENT_INDEX, ELEMENTS, MAX_ATOMS, MAX_COORDINATE,
                           N_BOND_CATEGORIES, MoleculeGraph, ParseError, feature_width,
                           make_graph, parse_molecule, permute,
                           serialize_molecule, to_dense, validate_valence)
from mjae.sampling import quantize


def test_parse_water():
    g = parse_molecule(WATER_RECORD)
    assert g.n == 3
    assert g.bonds[0, 1] == g.bonds[1, 0] == 1
    assert g.bonds[0, 2] == g.bonds[2, 0] == 1
    assert ELEMENTS[g.atom_types[0]] == "O"
    assert np.allclose(g.positions.mean(axis=0), 0.0, atol=1e-12)


def test_parse_bond_index_out_of_range():
    rec = json.loads(WATER_RECORD)
    rec["bonds"] = [[0, 5, 1]]
    with pytest.raises(ParseError, match="out of range"):
        parse_molecule(json.dumps(rec))


def test_parse_all_zero_coordinates():
    rec = {"atoms": [{"el": "C", "q": 0, "xyz": [0, 0, 0]},
                     {"el": "O", "q": 0, "xyz": [0, 0, 0]}],
           "bonds": [[0, 1, 2]]}
    g = parse_molecule(json.dumps(rec))
    assert np.all(g.positions == 0.0)


def test_parse_distinct_diagnostics():
    with pytest.raises(ParseError, match="malformed JSON"):
        parse_molecule("{not json")
    with pytest.raises(ParseError, match="unknown element"):
        parse_molecule('{"atoms":[{"el":"Zz","q":0,"xyz":[0,0,0]}],"bonds":[]}')
    with pytest.raises(ParseError, match="self-bond"):
        parse_molecule('{"atoms":[{"el":"C","q":0,"xyz":[0,0,0]}],"bonds":[[0,0,1]]}')
    with pytest.raises(ParseError, match="conflicting bond orders"):
        parse_molecule(
            '{"atoms":[{"el":"C","q":0,"xyz":[0,0,0]},{"el":"C","q":0,"xyz":[1,0,0]}],'
            '"bonds":[[0,1,1],[1,0,2]]}')
    with pytest.raises(ParseError, match="no atoms"):
        parse_molecule('{"atoms":[],"bonds":[]}')


@pytest.mark.parametrize("record, field", [
    ('{"atoms": [1]}', "atom must be an object"),
    ('{"atoms": "CO"}', "'atoms' must be a list"),
    ('{"atoms": [{"el": ["C"]}]}', "atom 'el' must be a string"),
    ('{"atoms": [{"el": "C", "xyz": 5}]}', "atom 'xyz' must be a list"),
    ('{"atoms": [{"el": "C", "xyz": [0, "1", 0]}]}', "atom 'xyz' component must be a number"),
    ('{"atoms": [{"el": "C", "xyz": [0, 1e999, 0]}]}', "non-finite"),
    ('{"atoms": [{"el": "C", "xyz": [0, 1' + "0" * 400 + ', 0]}]}', "'xyz' component out of range"),
    ('{"atoms": [{"el": "C", "xyz": [0, 0, -1e154]}]}', "component -1e\\+154 is out of range"),
    ('{"atoms": [{"el": "C"}], "bonds": 3}', "'bonds' must be a list"),
    ('{"atoms": [{"el": "C", "q": "x"}]}', "atom 'q' must be an integer"),
    ('{"atoms": [{"el": "C", "q": 0.7}]}', "atom 'q' must be an integer"),
    ('{"atoms": [{"el": "C", "q": true}]}', "atom 'q' must be an integer"),
    ('{"atoms": [{"el": "C", "q": 100000000000000000000}]}', "formal charge"),
    ('{"atoms": [{"el": "C"}, {"el": "C"}], "bonds": [[0, 1, 1.9]]}', "bond entry value"),
    ('{"atoms": [{"el": "C"}, {"el": "C"}], "bonds": [[0.5, 1, 1]]}', "bond entry value"),
    ('{"atoms": [{"el": "C"}, {"el": "C"}], "bonds": [{"i": 0, "j": 1, "o": 1}]}',
     "bond entry must be"),
])
def test_parse_wrong_json_types_name_the_field(record, field):
    with pytest.raises(ParseError, match=field):
        parse_molecule(record)


def test_parse_bounds_each_coordinate():
    """|x| up to MAX_COORDINATE parses; the next float above it is named."""
    edge = {"el": "C", "xyz": [MAX_COORDINATE, -MAX_COORDINATE, 0.0]}
    graph = parse_molecule(json.dumps({"atoms": [edge, {"el": "C"}]}))
    assert np.isfinite(graph.positions).all()
    beyond = np.nextafter(MAX_COORDINATE, np.inf)
    with pytest.raises(ParseError, match="atom 'xyz' component .* is out of range"):
        parse_molecule(json.dumps({"atoms": [{"el": "C", "xyz": [0.0, beyond, 0.0]}]}))


def _field(valid):
    """A record field: usually well-formed, sometimes any JSON value."""
    return st.one_of(valid, json_values())


_ATOMS = st.lists(_field(st.fixed_dictionaries({}, optional={
    "el": _field(st.sampled_from(ELEMENTS + ("Zz",))),
    "q": _field(st.integers(-2, 2)),
    "xyz": _field(st.lists(st.floats(-5, 5), min_size=2, max_size=4)),
})), max_size=4)
_BONDS = st.lists(_field(st.lists(st.integers(-1, 5), min_size=3, max_size=3)), max_size=4)
_RECORDS = st.one_of(
    st.fixed_dictionaries({"atoms": _field(_ATOMS)}, optional={"bonds": _field(_BONDS)})
    .map(json.dumps),
    json_values().map(json.dumps),
    st.text(max_size=30),
)


@settings(max_examples=400, deadline=None)
@given(_RECORDS)
def test_only_parse_error_escapes_parse_molecule(record):
    try:
        graph = parse_molecule(record)
    except ParseError:
        return
    assert isinstance(graph, MoleculeGraph)


def test_make_graph_validation():
    with pytest.raises(ParseError, match="not symmetric"):
        make_graph([2, 2], [0, 0], [[0, 1], [0, 0]], np.zeros((2, 3)))
    with pytest.raises(ParseError, match="diagonal"):
        make_graph([2], [0], [[1]], np.zeros((1, 3)))
    with pytest.raises(ParseError, match="charge"):
        make_graph([2], [5], [[0]], np.zeros((1, 3)))
    with pytest.raises(ParseError, match="limit"):
        n = MAX_ATOMS + 1
        make_graph([1] * n, [0] * n, np.zeros((n, n), dtype=int), np.zeros((n, 3)))


def test_make_graph_centers_positions(rng):
    pos = rng.standard_normal((4, 3)) + 5.0
    g = make_graph([2, 2, 2, 2], [0] * 4, np.zeros((4, 4), dtype=int), pos)
    assert np.allclose(g.positions.mean(axis=0), 0.0, atol=1e-12)


def test_graph_arrays_read_only(water):
    with pytest.raises(ValueError):
        water.bonds[0, 1] = 3


def test_to_dense_single_carbon():
    g = make_graph([ELEMENT_INDEX["C"]], [0], [[0]], np.zeros((1, 3)))
    d = to_dense(g)
    assert d.H.shape == (1, feature_width())
    assert d.H.sum() == 2.0
    assert d.H[0, ELEMENT_INDEX["C"]] == 1.0


def test_to_dense_bond_category():
    bonds = np.zeros((3, 3), dtype=int)
    bonds[0, 1] = bonds[1, 0] = 2
    g = make_graph([2, 2, 1], [0, 0, 0], bonds, np.zeros((3, 3)))
    d = to_dense(g)
    assert d.E[0, 1, 2] == 1.0
    assert np.array_equal(d.E[0, 1], d.E[1, 0])
    assert d.E[0, 1].sum() == 1.0


def test_dense_invariants_on_corpus():
    for g in toy_corpus(count=6, seed=3):
        d = to_dense(g)
        assert np.allclose(d.H.sum(axis=1), 2.0)
        assert np.allclose(d.E.sum(axis=2), 1.0)
        assert np.allclose(d.E, np.swapaxes(d.E, 0, 1))


def test_quantize_round_trip_corpus():
    for g in toy_corpus(count=8, seed=1):
        back = quantize(to_dense(g))
        assert np.array_equal(back.atom_types, g.atom_types)
        assert np.array_equal(back.charges, g.charges)
        assert np.array_equal(back.bonds, g.bonds)


def test_serialize_parse_round_trip():
    for g in [water_graph()] + toy_corpus(count=5, seed=2):
        line = serialize_molecule(g)
        g2 = parse_molecule(line)
        assert serialize_molecule(g2) == line
        assert np.array_equal(g2.bonds, g.bonds)
        assert np.allclose(g2.positions, g.positions, atol=1e-8)


def test_validate_valence_methane(methane):
    ok, diags = validate_valence(methane)
    assert ok and not diags


def test_validate_valence_water(water):
    ok, _ = validate_valence(water)
    assert ok


def test_validate_valence_overbonded_carbon():
    n = 6
    bonds = np.zeros((n, n), dtype=int)
    for h in range(1, n):
        bonds[0, h] = bonds[h, 0] = 1
    types = [ELEMENT_INDEX["C"]] + [ELEMENT_INDEX["H"]] * 5
    g = make_graph(types, [0] * n, bonds, np.zeros((n, 3)))
    ok, diags = validate_valence(g)
    assert not ok
    assert any(d.startswith("atom 0") for d in diags)


def test_permute_consistency(rng):
    g = random_molecule(rng, n_heavy=3)
    perm = rng.permutation(g.n)
    pg = permute(g, perm)
    d, pd = to_dense(g), to_dense(pg)
    assert np.allclose(pd.H, d.H[perm])
    assert np.allclose(pd.E, d.E[np.ix_(perm, perm)])
    assert np.allclose(pd.P, d.P[perm])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_builder_is_valence_valid(seed):
    g = random_molecule(np.random.default_rng(seed), n_heavy=3)
    ok, diags = validate_valence(g)
    assert ok, diags
    assert np.all(g.bonds == g.bonds.T)
    assert np.all(np.diag(g.bonds) == 0)
    assert np.all(g.bonds < N_BOND_CATEGORIES)
    assert set(np.unique(g.charges)).issubset(set(CHARGES))
