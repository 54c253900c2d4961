"""Layered gate IR plus builders for the two circuit halves.

The generative half is L repetitions of [random-angle RX layer, Erdos-Renyi CZ
layer] followed by a final RX and a final RY layer, all angles i.i.d.
N(0, tau^2).  The trainable half is a 1-D brick ansatz of fully parameterised
two-qubit gates, each decomposed into 15 Pauli rotations so the parameter-shift
rule applies to every parameter.

All builders are pure functions of (spec, seed); serialization is canonical so
repeated builds produce byte-identical JSON.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .pauli import PauliString
from .seeding import rng_for

TAU2_CONSTANT = 0.2499  # strictly below the 1/4 ceiling

ROTATION_KINDS = ("RX", "RY", "RZ", "RXX", "RYY", "RZZ")

# Per-brick rotation template (applied in list order): a KAK-style
# pre-rotation on each qubit, the three entangling axes, a post-rotation
# on each qubit.  15 parameters per brick.
_BRICK_TEMPLATE: Tuple[Tuple[str, int], ...] = (
    ("RZ", 0), ("RY", 0), ("RZ", 0),
    ("RZ", 1), ("RY", 1), ("RZ", 1),
    ("RXX", 2), ("RYY", 2), ("RZZ", 2),
    ("RZ", 0), ("RY", 0), ("RZ", 0),
    ("RZ", 1), ("RY", 1), ("RZ", 1),
)
BRICK_PARAMS = len(_BRICK_TEMPLATE)


@dataclass(frozen=True)
class Gate:
    kind: str  # RX, RY, RZ, RXX, RYY, RZZ, CZ
    qubits: Tuple[int, ...]
    angle: Optional[float] = None

    def generator(self, n: int) -> PauliString:
        """Pauli generator G of a rotation gate R = exp(-i*angle*G)."""
        if self.kind not in ROTATION_KINDS:
            raise ValueError(f"{self.kind} is not a rotation gate")
        letter = self.kind[1]
        x = z = 0
        for q in self.qubits:
            if letter in ("X", "Y"):
                x |= 1 << q
            if letter in ("Y", "Z"):
                z |= 1 << q
        return PauliString(n, x, z)


@dataclass(frozen=True)
class RotationLayer:
    axis: str  # X, Y, Z
    role: str
    angles: Tuple[float, ...]


@dataclass(frozen=True)
class CZLayer:
    edges: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class BrickLayer:
    pairs: Tuple[Tuple[int, int], ...]
    param_ids: Tuple[Tuple[int, ...], ...]  # 15 ids per brick


Layer = Union[RotationLayer, CZLayer, BrickLayer]


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not a Python int >= `least`: a float, a bool or a
    numpy integer would be truncated or mis-indexed downstream."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class LayerGraph:
    """Simple undirected graph on qubits; edges stored as sorted pairs."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        _check_count("vertex count", self.n, 0)
        for a, b in self.edges:
            if not (type(a) is int and type(b) is int and 0 <= a < b < self.n):
                raise ValueError("edges must be sorted integer pairs inside the register")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge")

    @classmethod
    def _from_checked(cls, n: int, edges: Tuple[Tuple[int, int], ...]) -> "LayerGraph":
        """A graph from distinct sorted pairs inside the register, not checked again."""
        graph = cls.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph


@dataclass(frozen=True)
class GenerativeSpec:
    n: int
    layers: int
    p: float
    tau2: float
    seed: int

    def __post_init__(self):
        _check_count("qubit count", self.n, 1)
        _check_count("layer count", self.layers, 0)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("edge probability must lie in [0, 1]")
        if not 0.0 < self.tau2 < 0.25:  # also rejects NaN
            raise ValueError(f"tau2 must lie in (0, 1/4), got {self.tau2!r}")


_BOOL_TYPES = frozenset((bool, np.bool_))


def _has_bool(values) -> bool:
    """Whether a list, tuple or array holds a boolean."""
    if isinstance(values, np.ndarray):
        return values.dtype == bool
    return isinstance(values, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, values))


@dataclass
class Circuit:
    n: int
    layers: Tuple[Layer, ...]
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        """Reject IR the engines would index past or silently mis-simulate.

        This is the one check of the IR: the layer records check nothing.
        Qubit counts, qubits and parameter ids must be exact Python ints: a
        float or a bool would be truncated or mis-indexed by the engines.
        Angles must not be bools, which would run as 0 or 1 radian.
        """
        if _has_bool(self.theta):
            raise ValueError("theta entries must be numbers, not booleans")
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1 or not np.isfinite(self.theta).all():
            raise ValueError("theta must be a flat array of finite angles")
        n = self.n
        _check_count("qubit count", n, 1)
        for layer in self.layers:
            if isinstance(layer, RotationLayer):
                if layer.axis not in ("X", "Y", "Z"):
                    raise ValueError(f"unknown rotation axis {layer.axis!r}")
                if layer.role not in ("gen", "train"):
                    raise ValueError(f"unknown rotation role {layer.role!r}")
                if len(layer.angles) != n:
                    raise ValueError(f"rotation layer has {len(layer.angles)} angles "
                                     f"for {n} qubits")
                if _has_bool(layer.angles) or not all(map(math.isfinite, layer.angles)):
                    raise ValueError("rotation angles must be finite numbers")
                continue
            if not isinstance(layer, (CZLayer, BrickLayer)):
                raise ValueError(f"not a layer record: {layer!r}")
            pairs = layer.edges if isinstance(layer, CZLayer) else layer.pairs
            if not all(type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n
                       and a != b for a, b in pairs):
                raise ValueError(f"qubit pairs must join two distinct integer qubits inside "
                                 f"the {n}-qubit register: {pairs}")
            if isinstance(layer, CZLayer):
                if len(set(map(frozenset, pairs))) < len(pairs):
                    raise ValueError("a CZ layer lists each pair once, in either orientation")
                continue
            qubits = [q for pair in pairs for q in pair]
            if len(set(qubits)) < len(qubits):
                raise ValueError("bricks must sit on disjoint pairs")
            if (len(layer.param_ids) != len(pairs)
                    or any(len(ids) != BRICK_PARAMS for ids in layer.param_ids)):
                raise ValueError(f"each brick takes one group of {BRICK_PARAMS} parameter ids")
        ids = [pid for layer in self.layers if isinstance(layer, BrickLayer)
               for brick in layer.param_ids for pid in brick]
        if ids and (set(map(type, ids)) != {int} or len(set(ids)) < len(ids)
                    or min(ids) < 0 or max(ids) >= len(self.theta)):
            raise ValueError("param_ids must be distinct integer indices into theta")

    @classmethod
    def _from_checked(cls, n: int, layers: Tuple[Layer, ...], theta: np.ndarray) -> "Circuit":
        """A circuit from parts that already passed `__post_init__`, not checked again."""
        circuit = cls.__new__(cls)
        circuit.n, circuit.layers, circuit.theta = n, layers, theta
        return circuit

    @property
    def num_params(self) -> int:
        return len(self.theta)

    def with_theta(self, theta: Sequence[float]) -> "Circuit":
        if np.shape(theta) != self.theta.shape:
            raise ValueError("theta length mismatch")
        return Circuit(self.n, self.layers, theta)

    def gates(self, theta: Optional[np.ndarray] = None) -> Iterator[Gate]:
        """All gates in application order, trainable angles resolved."""
        th = self.theta if theta is None else np.asarray(theta, dtype=float)
        for layer in self.layers:
            yield from layer_gates(layer, th)


def layer_gates(layer: Layer, theta: np.ndarray) -> Iterator[Gate]:
    """The gates of one layer in application order, brick angles read from `theta`."""
    if isinstance(layer, RotationLayer):
        for q, ang in enumerate(layer.angles):
            yield Gate("R" + layer.axis, (q,), ang)
    elif isinstance(layer, CZLayer):
        for a, b in layer.edges:
            yield Gate("CZ", (a, b))
    elif isinstance(layer, BrickLayer):
        for pair, ids in zip(layer.pairs, layer.param_ids):
            for (kind, which), pid in zip(_BRICK_TEMPLATE, ids):
                qubits = pair if which == 2 else (pair[which],)
                yield Gate(kind, qubits, float(theta[pid]))
    else:
        raise TypeError(f"unknown layer {layer!r}")


def resolve_tau2(preset: str, n: int, layers: int, max_weight: int = 1) -> float:
    """Angle-variance presets.

    "constant" stays just under the 1/4 ceiling; "theorem" scales as
    ln(n) / (16 * S * (L+2)) with S the largest observable weight, capped at
    the constant preset.
    """
    if preset == "constant":
        return TAU2_CONSTANT
    if preset == "theorem":
        return min(TAU2_CONSTANT, math.log(n) / (16.0 * max_weight * (layers + 2)))
    raise ValueError(f"unknown tau2 preset {preset!r}")


@functools.lru_cache(maxsize=1)
def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The C(n,2) pairs a < b in lexicographic order, as read-only arrays.

    Kept for the most recent n: the studies draw many graphs of one size.
    """
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def sample_er_graph(n: int, p: float, seed: int) -> LayerGraph:
    """G(n, p): each of the C(n,2) edges kept independently with probability p.

    One uniform draw per pair, pairs in lexicographic order (0,1), (0,2), ...
    """
    _check_count("vertex count", n, 0)
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    a, b = _pairs(n)
    keep = rng_for(seed).random(len(a)) < p
    return LayerGraph._from_checked(n, tuple(zip(a[keep].tolist(), b[keep].tolist())))


def build_generative(spec: GenerativeSpec) -> Circuit:
    """L x [RX layer, CZ layer] then a final RX and RY layer.

    `spec` checked its counts and ranges, so the circuit skips the IR check.
    """
    tau = math.sqrt(spec.tau2)
    rng = rng_for(spec.seed)
    layers: List[Layer] = []
    for _ in range(spec.layers):
        angles = tuple(rng.normal(0.0, tau, spec.n).tolist())
        layers.append(RotationLayer("X", "gen", angles))
        graph = sample_er_graph(spec.n, spec.p, int(rng.integers(0, 2**63)))
        layers.append(CZLayer(graph.edges))
    for axis in ("X", "Y"):
        angles = tuple(rng.normal(0.0, tau, spec.n).tolist())
        layers.append(RotationLayer(axis, "gen", angles))
    return Circuit._from_checked(spec.n, tuple(layers), np.zeros(0))


def brick_pairs(n: int, layer_index: int) -> Tuple[Tuple[int, int], ...]:
    offset = layer_index % 2
    return tuple((i, i + 1) for i in range(offset, n - 1, 2))


def default_depth(n: int) -> int:
    return max(1, math.ceil(math.log2(n)))


def default_p(n: int) -> float:
    """CZ edge probability ln(n)/n of the generative model."""
    return math.log(n) / n


def default_layers(n: int) -> int:
    """Generative layer count ceil(ln n), at least 1."""
    return max(1, math.ceil(math.log(n)))


def build_trainable(n: int, depth: int, seed: int = 0, init: str = "uniform") -> Circuit:
    """Brick ansatz on a 1-D chain with alternating pair offsets.

    The arguments are checked here, so the circuit skips the IR check.
    """
    _check_count("qubit count", n, 1)
    _check_count("depth", depth, 0)
    if init not in ("uniform", "zeros"):
        raise ValueError(f"unknown init {init!r}")
    layers: List[Layer] = []
    next_id = 0
    for l in range(depth):
        pairs = brick_pairs(n, l)
        ids = []
        for _ in pairs:
            ids.append(tuple(range(next_id, next_id + BRICK_PARAMS)))
            next_id += BRICK_PARAMS
        layers.append(BrickLayer(pairs, tuple(ids)))
    if init == "uniform":
        theta = rng_for(seed).uniform(-math.pi, math.pi, next_id)
    else:
        theta = np.zeros(next_id)
    return Circuit._from_checked(n, tuple(layers), theta)


def concatenate(first: Circuit, second: Circuit) -> Circuit:
    """Full model: run `first` then `second`; theta comes from `second`."""
    if first.n != second.n:
        raise ValueError("qubit counts differ")
    if first.num_params:
        raise ValueError("first circuit must be parameter-free")
    # `first` reads no parameter, so every id indexes `second.theta`, as checked
    return Circuit._from_checked(first.n, first.layers + second.layers, second.theta)


def backward_lightcone(circuit: Circuit, support: Set[int]) -> Tuple[List[Set[int]], Set[int]]:
    """Grow the support backwards through the layers (last layer first).

    CZ and brick layers grow the set by gate adjacency; rotation layers do
    not.  Returns the set after each processed layer plus the final set.
    """
    cone = set(support)
    history: List[Set[int]] = []
    for layer in reversed(circuit.layers):
        if isinstance(layer, CZLayer):
            grown = set(cone)
            for a, b in layer.edges:
                if a in cone:
                    grown.add(b)
                if b in cone:
                    grown.add(a)
            cone = grown
        elif isinstance(layer, BrickLayer):
            for a, b in layer.pairs:
                if a in cone or b in cone:
                    cone.update((a, b))
        history.append(set(cone))
    return history, cone


# The JSON tag of each layer record; a layer's other keys are the record's fields.
_LAYER_TAGS = {"rot": RotationLayer, "cz": CZLayer, "brick": BrickLayer}


def circuit_to_json_obj(circuit: Circuit) -> dict:
    tags = {cls: tag for tag, cls in _LAYER_TAGS.items()}
    return {"n": circuit.n, "theta": [float(t) for t in circuit.theta],
            "layers": [{"type": tags[type(layer)], **vars(layer)} for layer in circuit.layers]}


def _tuples(value):
    """JSON lists, at any depth, as the tuples the layer records hold."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def circuit_from_json_obj(obj: dict) -> Circuit:
    layers: List[Layer] = []
    for d in obj["layers"]:
        fields = {**d}
        tag = fields.pop("type")
        if tag not in _LAYER_TAGS:
            raise ValueError(f"unknown layer type {tag!r}")
        layers.append(_LAYER_TAGS[tag](**{k: _tuples(v) for k, v in fields.items()}))
    return Circuit(obj["n"], tuple(layers), obj["theta"])


def circuit_to_json(circuit: Circuit) -> str:
    """Canonical (byte-stable) JSON encoding."""
    return json.dumps(circuit_to_json_obj(circuit), sort_keys=True, separators=(",", ":"))


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_json_obj(json.loads(text))
