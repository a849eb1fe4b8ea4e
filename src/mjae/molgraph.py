"""Molecular graph data model: JSONL ingestion, one-hot tensorization, valence checks.

A molecule is a set of typed, charged atoms with 3D positions and a dense
symmetric bond-category matrix (0=none, 1/2/3=single/double/triple,
4=aromatic). Positions are zero-centered at ingestion so the whole pipeline
works in the zero center-of-mass gauge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Element vocabulary: slot 0 is padding, then a QM9-like organic subset.
ELEMENTS = ("X", "H", "C", "N", "O", "F")
ELEMENT_INDEX = {el: i for i, el in enumerate(ELEMENTS)}
CHARGES = (-1, 0, 1)
CHARGE_INDEX = {q: i for i, q in enumerate(CHARGES)}
FEATURE_WIDTH = len(ELEMENTS) + len(CHARGES)  # an H row: atom-type and charge slots
N_BOND_CATEGORIES = 5  # none, single, double, triple, aromatic
MAX_ATOMS = 64
# Largest |coordinate| a record may hold. The frames' cross-product axis has
# entries of order |x|^2 and np.linalg.norm squares them, so a coordinate
# overflows that norm from about 1e77; at 1e50 it stays near 1e200.
MAX_COORDINATE = 1e50

# Allowed valences keyed by (element, formal charge). Aromatic bonds count 1.5.
VALENCE_TABLE = {
    ("H", 0): (1,),
    ("H", 1): (0,),
    ("C", 0): (4,),
    ("C", 1): (3,),
    ("C", -1): (3,),
    ("N", 0): (3,),
    ("N", 1): (4,),
    ("N", -1): (2,),
    ("O", 0): (2,),
    ("O", 1): (3,),
    ("O", -1): (1,),
    ("F", 0): (1,),
    ("F", -1): (0,),
}

BOND_ORDER_VALUE = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 1.5}


class ParseError(ValueError):
    """Malformed or invalid molecule record."""


@dataclass(frozen=True)
class MoleculeGraph:
    """Validated molecule: atom types/charges, dense bonds, centered positions."""

    atom_types: np.ndarray  # (n,) indices into ELEMENTS
    charges: np.ndarray     # (n,) formal charges
    bonds: np.ndarray       # (n, n) symmetric category matrix, zero diagonal
    positions: np.ndarray   # (n, 3) zero-centered, Angstrom

    @property
    def n(self):
        return len(self.atom_types)

    def __post_init__(self):
        for arr in (self.atom_types, self.charges, self.bonds, self.positions):
            arr.setflags(write=False)


@dataclass(frozen=True)
class DenseTensors:
    """One-hot relaxation of a molecule, the continuous state diffused over.

    H rows are (atom-type one-hot | charge one-hot), so each valid row sums
    to 2; E[i, j] is a bond-category one-hot with E[i, j] == E[j, i].
    """

    H: np.ndarray  # (n, FEATURE_WIDTH)
    E: np.ndarray  # (n, n, N_BOND_CATEGORIES)
    P: np.ndarray  # (n, 3)

    @property
    def n(self):
        return self.H.shape[0]


def make_graph(atom_types, charges, bonds, positions):
    """Build a validated, zero-centered MoleculeGraph from raw arrays."""
    atom_types = np.asarray(atom_types, dtype=np.int64).copy()
    charges = np.asarray(charges, dtype=np.int64).copy()
    bonds = np.asarray(bonds, dtype=np.int64).copy()
    positions = np.asarray(positions, dtype=np.float64).copy()
    n = len(atom_types)
    if n == 0:
        raise ParseError("molecule has no atoms")
    if n > MAX_ATOMS:
        raise ParseError(f"molecule has {n} atoms, limit is {MAX_ATOMS}")
    if np.any(atom_types < 0) or np.any(atom_types >= len(ELEMENTS)):
        raise ParseError("atom type index outside vocabulary")
    if not all(int(q) in CHARGE_INDEX for q in charges):
        raise ParseError(f"formal charge outside {CHARGES}")
    if bonds.shape != (n, n):
        raise ParseError(f"bond matrix shape {bonds.shape} != ({n}, {n})")
    if np.any(bonds != bonds.T):
        raise ParseError("bond matrix is not symmetric")
    if np.any(np.diag(bonds) != 0):
        raise ParseError("bond matrix has nonzero diagonal")
    if np.any(bonds < 0) or np.any(bonds >= N_BOND_CATEGORIES):
        raise ParseError("bond category outside 0..4")
    if positions.shape != (n, 3):
        raise ParseError(f"positions shape {positions.shape} != ({n}, 3)")
    if not np.all(np.isfinite(positions)):
        raise ParseError("positions contain non-finite values")
    positions = positions - positions.mean(axis=0, keepdims=True)
    return MoleculeGraph(atom_types, charges, bonds, positions)


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind, field):
    """``value`` if JSON gave it as a ``kind`` (for float, any number; never a
    bool), else a ParseError naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ParseError(f"{field} must be {_KINDS[kind]}, got {value!r}")
    return value


def parse_molecule(record):
    """Parse one JSONL molecule record into a validated MoleculeGraph.

    Record format:
    ``{"atoms": [{"el": "O", "q": 0, "xyz": [x, y, z]}, ...],
       "bonds": [[i, j, order], ...]}`` with 0-based indices, order in 1..4.
    Bonds are listed once per pair; the parser symmetrizes. Every malformed
    record, including a field of the wrong JSON type, is a ParseError.
    """
    try:
        obj = json.loads(record)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ParseError("record missing 'atoms'")
    atoms = _typed(obj["atoms"], list, "'atoms'")
    if not atoms:
        raise ParseError("molecule has no atoms")
    n = len(atoms)
    atom_types, charges, positions = [], [], []
    for a in atoms:
        el = _typed(_typed(a, dict, "atom").get("el"), str, "atom 'el'")
        if el not in ELEMENT_INDEX:
            raise ParseError(f"unknown element {el!r}")
        atom_types.append(ELEMENT_INDEX[el])
        q = _typed(a.get("q", 0), int, "atom 'q'")
        if q not in CHARGE_INDEX:
            raise ParseError(f"formal charge {q} outside {CHARGES}")
        charges.append(q)
        xyz = _typed(a.get("xyz", [0.0, 0.0, 0.0]), list, "atom 'xyz'")
        if len(xyz) != 3:
            raise ParseError(f"xyz must have 3 components, got {len(xyz)}")
        try:
            xyz = [float(_typed(c, float, "atom 'xyz' component")) for c in xyz]
        except OverflowError as e:
            raise ParseError(f"atom 'xyz' component out of range: {e}") from e
        for c in xyz:  # a non-finite one is make_graph's to name
            if MAX_COORDINATE < abs(c) < np.inf:
                raise ParseError(f"atom 'xyz' component {c!r} is out of range "
                                 f"(|x| > {MAX_COORDINATE:g})")
        positions.append(xyz)
    bonds = np.zeros((n, n), dtype=np.int64)
    for entry in _typed(obj.get("bonds", []), list, "'bonds'"):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"bond entry must be [i, j, order], got {entry}")
        i, j, order = (_typed(v, int, "bond entry value") for v in entry)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"bond index ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ParseError(f"self-bond on atom {i}")
        if not (1 <= order < N_BOND_CATEGORIES):
            raise ParseError(f"bond order {order} outside 1..{N_BOND_CATEGORIES - 1}")
        if bonds[i, j] not in (0, order):
            raise ParseError(f"conflicting bond orders for pair ({i}, {j})")
        bonds[i, j] = order
        bonds[j, i] = order
    return make_graph(atom_types, charges, bonds, positions)


def serialize_molecule(graph):
    """Inverse of parse_molecule: one JSONL line, bonds listed once per pair."""
    atoms = []
    for i in range(graph.n):
        atoms.append({
            "el": ELEMENTS[graph.atom_types[i]],
            "q": int(graph.charges[i]),
            "xyz": [round(float(c), 9) for c in graph.positions[i]],
        })
    bonds = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if graph.bonds[i, j] != 0:
                bonds.append([i, j, int(graph.bonds[i, j])])
    return json.dumps({"atoms": atoms, "bonds": bonds}, separators=(",", ":"))


def to_dense(graph):
    """One-hot tensorization: H = type-hot | charge-hot, E = bond-category hot."""
    n = graph.n
    H = np.zeros((n, FEATURE_WIDTH))
    H[np.arange(n), graph.atom_types] = 1.0
    charge_slots = np.array([CHARGE_INDEX[int(q)] for q in graph.charges])
    H[np.arange(n), len(ELEMENTS) + charge_slots] = 1.0
    E = np.zeros((n, n, N_BOND_CATEGORIES))
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    E[ii, jj, graph.bonds] = 1.0
    return DenseTensors(H=H, E=E, P=graph.positions.copy())


def validate_valence(graph):
    """Simplified stability check against the fixed valence table.

    Returns (molecule_stable, per_atom_diagnostics); an atom is stable iff its
    bond-order sum (aromatic = 1.5) equals an allowed valence for its
    (element, charge).
    """
    order_values = np.vectorize(BOND_ORDER_VALUE.get)(graph.bonds)
    sums = order_values.sum(axis=1)
    diagnostics = []
    all_ok = True
    for i in range(graph.n):
        el = ELEMENTS[graph.atom_types[i]]
        q = int(graph.charges[i])
        allowed = VALENCE_TABLE.get((el, q), ())
        ok = any(abs(sums[i] - v) < 1e-9 for v in allowed)
        if not ok:
            all_ok = False
            diagnostics.append(
                f"atom {i} ({el}, charge {q:+d}): bond-order sum {sums[i]:g} "
                f"not in allowed valences {list(allowed)}")
    return all_ok, diagnostics


def permute(graph, perm):
    """Relabel atoms by permutation ``perm`` (new_index -> old_index)."""
    perm = np.asarray(perm)
    return make_graph(
        graph.atom_types[perm],
        graph.charges[perm],
        graph.bonds[np.ix_(perm, perm)],
        graph.positions[perm],
    )
