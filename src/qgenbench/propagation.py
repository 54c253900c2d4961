"""Heisenberg-picture Pauli propagation with configurable truncation.

The observable (a real-coefficient Pauli sum) is conjugated layer by layer
from the last circuit layer to the first; the final expectation is read off
on |0...0>.  Terms are held in flat numpy arrays: one packed uint64 key
(x << 32) | z per string, which caps the register at 32 qubits, plus the
coefficient and the sine count.  A rotation scales the cosine branch of the
anticommuting terms and merges their sine branch into the terms with one
stable sort, which runs in linear time because both parts are sorted runs.
Truncation runs once on the observable and then after each rotation that
splits a term; the term cap finds its threshold with ``np.partition``.  A
CZ layer creates no new terms: its gates commute, so the whole layer is one
Clifford map of the keys, z <- z ^ M x with M the layer's adjacency matrix,
plus one closed-form sign; the keys come out permuted, and the next
rotation that splits terms sorts them again.

Rotation gates follow the generator convention R(g) = exp(-i*g*G) with G a
Pauli, so conjugating an anticommuting string P gives
cos(2g)*P + sin(2g)*(iGP); the sine branch increments the term's sine count.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circuits import (Circuit, CZLayer, GenerativeSpec, build_generative, build_trainable,
                       concatenate, default_layers, default_p, layer_gates)
from .pauli import COEFF_EPS, PauliString, PauliSum, PauliTerm
from .seeding import derive_seed

MAX_PROP_QUBITS = 32  # merge keys pack (x, z) into one uint64

class ResourceLimitError(RuntimeError):
    """Raised when exact-mode term count exceeds max_terms; carries the
    partial report collected so far."""

    def __init__(self, message: str, report: "PropagationReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class TruncationPolicy:
    """What `propagate` drops from the observable and after each rotation
    that splits a term; one policy holds for the run."""

    sine_cutoff: Optional[int] = None
    max_terms: Optional[int] = None
    exact: bool = False

    def __post_init__(self):
        for name, least in (("sine_cutoff", 0), ("max_terms", 1)):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.exact and self.sine_cutoff is not None:
            raise ValueError("exact mode keeps every term; it takes no sine_cutoff")
        if not self.exact and self.sine_cutoff is None and self.max_terms is None:
            raise ValueError("set at least one truncation criterion or exact=True")

    @classmethod
    def exact_mode(cls, max_terms: Optional[int] = None) -> "TruncationPolicy":
        return cls(exact=True, max_terms=max_terms)


@dataclass
class PropagationReport:
    expectation: float
    terms_per_step: List[int] = field(default_factory=list)
    peak_terms: int = 0
    dropped_mass: float = 0.0
    wall_time: float = 0.0
    final_terms: int = 0


_Z_MASK = np.uint64(0xFFFFFFFF)  # the z half of a packed key


def _key(x: int, z: int) -> int:
    """Packed merge key (x << 32) | z of one Pauli string."""
    return (x << 32) | z


class _TermArrays:
    """Flat storage: packed (x << 32) | z keys (uint64), coefficients, sine counts.

    Rotations that split a term return keys in increasing order; CZ layers
    permute keys, and the next splitting rotation sorts them again.
    """

    def __init__(self, k, c, s):
        self.k = np.asarray(k, dtype=np.uint64)
        self.c = np.asarray(c, dtype=np.float64)
        self.s = np.asarray(s, dtype=np.int64)

    def __len__(self):
        return len(self.c)

    def take(self, idx: np.ndarray) -> "_TermArrays":
        return _TermArrays(self.k[idx], self.c[idx], self.s[idx])

    @classmethod
    def from_sum(cls, obs: PauliSum) -> "_TermArrays":
        """Sorted arrays of a sum, every sine count 0 (a PauliSum holds no
        duplicates and no zeros)."""
        terms = sorted(obs, key=lambda t: _key(t.string.x, t.string.z))
        return cls([_key(t.string.x, t.string.z) for t in terms],
                   [t.coefficient for t in terms], np.zeros(len(terms), dtype=np.int64))


def _merge(a: _TermArrays, b: _TermArrays) -> _TermArrays:
    """Union of two term sets, each with distinct keys, sorted by key.

    A key in both gets the coefficients added (a's first) and the smaller
    sine count; terms with |c| < COEFF_EPS are dropped.  The stable sort
    finds a sorted set as one run and merges two runs in linear time.
    """
    k = np.concatenate([a.k, b.k])
    order = np.argsort(k, kind="stable")
    k = k[order]
    c = np.concatenate([a.c, b.c])[order]
    s = np.concatenate([a.s, b.s])[order]
    dup = np.flatnonzero(k[1:] == k[:-1])
    c[dup] += c[dup + 1]
    s[dup] = np.minimum(s[dup], s[dup + 1])
    keep = np.abs(c) >= COEFF_EPS
    keep[dup + 1] = False
    t = _TermArrays(k, c, s)
    return t if keep.all() else t.take(np.flatnonzero(keep))


def _apply_rotation(t: _TermArrays, gen: PauliString, angle: float) -> _TermArrays:
    # P anticommutes with G when |x & gz| + |z & gx| is odd: one popcount
    # against the generator's key with x and z swapped
    anti = np.flatnonzero(np.bitwise_count(t.k & np.uint64(_key(gen.z, gen.x))) & 1)
    if not len(anti):
        return t
    c2, s2 = math.cos(2 * angle), math.sin(2 * angle)
    ak, ac, asn = t.k[anti], t.c[anti], t.s[anti]
    # the sine branch P -> iGP is a bijection, so its keys are distinct
    sk = ak ^ np.uint64(_key(gen.x, gen.z))
    # its sign: with P = i^(x.z) X^x Z^z, GP = i^k X^x3 Z^z3 for x3, z3 the
    # XORs and k = gx.gz + px.pz + 2 gz.px - x3.z3, so iGP carries the real
    # phase i^(1+k); each dot product is one popcount of packed keys
    hi = np.uint64(32)
    ph = (np.bitwise_count((ak >> hi) & ak).astype(np.int64)
          + 2 * np.bitwise_count(ak & np.uint64(gen.z << 32))
          - np.bitwise_count((sk >> hi) & sk)
          + (gen.x & gen.z).bit_count() + 1)
    sign = np.where(ph % 4 == 0, 1.0, -1.0)
    c = t.c.copy()
    c[anti] = ac * c2
    sine = _TermArrays(sk, ac * s2 * sign, asn + 1)
    return _merge(_TermArrays(t.k, c, t.s), sine)


def _apply_cz_layer(t: _TermArrays, edges: Sequence[Tuple[int, int]]) -> _TermArrays:
    """Conjugate by every CZ of one layer at once.

    CZ_E X^x Z^z CZ_E = (-1)^e(x) X^x Z^(z ^ M x), with M the adjacency
    matrix of the edges E and e(x) the number of edges inside supp(x).  For
    P = i^(x.z) X^x Z^z that makes the new coefficient sign
    (-1)^(e(x) + (x.z - x.z')/2) for z' = z ^ M x.  M x and the parity of
    e(x) are linear in x over GF(2); they come from one 256-entry table per
    byte of x, whose words hold M x in the low half and, in the high half,
    U x for U the edges to higher qubits, so that e(x) = x.(U x) mod 2.
    """
    rows = [0] * MAX_PROP_QUBITS  # row q: N(q) low, the neighbours above q high
    for a, b in edges:
        lo, hi = min(a, b), max(a, b)
        rows[lo] |= (1 << hi) | (1 << (hi + 32))
        rows[hi] |= 1 << lo
    x = t.k >> np.uint64(32)
    words = np.zeros(len(t), dtype=np.uint64)
    for first in range(0, MAX_PROP_QUBITS, 8):
        byte_rows = rows[first:first + 8]
        if not any(byte_rows):
            continue
        table = [0]
        for row in byte_rows:  # each bit doubles the table
            table += [w ^ row for w in table]
        words ^= np.array(table, dtype=np.uint64)[(x >> np.uint64(first)) & np.uint64(0xFF)]
    k = t.k ^ (words & _Z_MASK)
    # bit 1 of x.z + 2 x.(U x) - x.z' is the sign; uint8 wraps modulo 256,
    # which keeps it
    ph = (np.bitwise_count(x & t.k) + 2 * np.bitwise_count(x & (words >> np.uint64(32)))
          - np.bitwise_count(x & k))
    flip = (ph & np.uint8(2)).astype(np.uint64) << np.uint64(62)
    # negate the flipped coefficients by toggling their sign bit
    c = (t.c.view(np.uint64) ^ flip).view(np.float64)
    return _TermArrays(k, c, t.s)


def _truncate(t: _TermArrays, pol: TruncationPolicy, report: PropagationReport) -> _TermArrays:
    if pol.exact:
        if pol.max_terms is not None and len(t) > pol.max_terms:
            report.final_terms = len(t)
            raise ResourceLimitError(
                f"exact mode exceeded max_terms={pol.max_terms} ({len(t)} terms)", report)
        return t
    if pol.sine_cutoff is not None:
        drop = t.s > pol.sine_cutoff
        if drop.any():
            report.dropped_mass += float(np.sum(np.abs(t.c[drop])))
            t = t.take(np.flatnonzero(~drop))
    if pol.max_terms is not None and len(t) > pol.max_terms:
        # keep the max_terms largest |c|, ties going to the lower index: the
        # set a stable descending sort would keep
        mag = np.abs(t.c)
        edge = np.partition(mag, len(t) - pol.max_terms)[len(t) - pol.max_terms]
        keep = mag > edge
        ties = np.flatnonzero(mag == edge)
        keep[ties[:pol.max_terms - np.count_nonzero(keep)]] = True
        # lost magnitudes summed in descending order
        report.dropped_mass += float(-np.sum(np.sort(-mag[~keep])))
        t = t.take(np.flatnonzero(keep))
    return t


def propagate(circuit: Circuit, observable: PauliSum,
              policy: TruncationPolicy) -> PropagationReport:
    """Conjugate `observable` back through `circuit` and evaluate on |0...0>."""
    if circuit.n > MAX_PROP_QUBITS:
        raise ValueError(f"propagation engine caps at {MAX_PROP_QUBITS} qubits")
    for term in observable:
        if term.string.n != circuit.n:
            raise ValueError("observable qubit count differs from circuit")
    report = PropagationReport(expectation=0.0)
    t = _TermArrays.from_sum(observable)
    start = time.monotonic()
    # the observable is truncated once; after that only a split can give
    # _truncate work, as a CZ layer, or a rotation that splits nothing,
    # changes no sine count, |c| or term count
    t = _truncate(t, policy, report)
    for layer in reversed(circuit.layers):
        if isinstance(layer, CZLayer):
            if layer.edges:
                t = _apply_cz_layer(t, layer.edges)
                report.terms_per_step += [len(t)] * len(layer.edges)
                report.peak_terms = max(report.peak_terms, len(t))
            continue
        for gate in reversed(list(layer_gates(layer, circuit.theta))):
            out = _apply_rotation(t, gate.generator(circuit.n), gate.angle)
            if out is not t:
                # rebinding out frees the merged terms before the next gate
                out = _truncate(out, policy, report)
            t = out
            report.terms_per_step.append(len(t))
            report.peak_terms = max(report.peak_terms, len(t))
    report.wall_time = time.monotonic() - start
    zmask = t.k <= _Z_MASK  # no X or Y letter
    report.expectation = float(np.sum(t.c[zmask]))
    report.final_terms = len(t)
    return report


def sine_cutoff_default(n: int) -> int:
    """ceil(log2 n) sine factors; a single qubit gets 0."""
    if n < 1:
        raise ValueError("n must be positive")
    return max(0, math.ceil(math.log2(n)))


def benchmark_propagation(ns, policy: Optional[TruncationPolicy], trials: int, seed: int, *,
                          layers: Optional[int] = None, p: Optional[float] = None,
                          tau2: Optional[float] = None, trainable_depth: int = 0,
                          exact_check_max_n: int = 12) -> List[dict]:
    """Propagation scaling study of Z_0 over system sizes.

    Defaults per n: layers = ceil(ln n), p = ln(n)/n, tau2 just under 1/4,
    and (when `policy` is None) a sine cutoff of ceil(log2 n).  For
    n <= `exact_check_max_n` the statevector error is recorded.  Returns one
    CSV-ready row dict per (n, trial).
    """
    from . import statevector as sv
    from .circuits import TAU2_CONSTANT

    rows = []
    for n in ns:
        pol = policy if policy is not None else TruncationPolicy(sine_cutoff=sine_cutoff_default(n))
        policy_id = _policy_id(pol)
        L = layers if layers is not None else default_layers(n)
        pn = p if p is not None else default_p(n)
        t2 = tau2 if tau2 is not None else TAU2_CONSTANT
        obs = PauliSum(n, [PauliTerm(1.0, PauliString.single(n, 0, "Z"))])
        for trial in range(trials):
            spec = GenerativeSpec(n, L, pn, t2, derive_seed(seed, n, trial, 0))
            circ = build_generative(spec)
            if trainable_depth > 0:
                train = build_trainable(n, trainable_depth,
                                        derive_seed(seed, n, trial, 1), "uniform")
                circ = concatenate(circ, train)
            report = propagate(circ, obs, pol)
            err = None
            if n <= exact_check_max_n:
                exact = sv.expectation(sv.run(circ), obs)
                err = abs(report.expectation - exact)
            rows.append({
                "n": n, "trial": trial, "policy_id": policy_id,
                "expectation": report.expectation,
                "error_vs_exact": err,
                "peak_terms": report.peak_terms,
                "final_terms": report.final_terms,
                "dropped_mass": report.dropped_mass,
                "wall_time_s": report.wall_time,
            })
    return rows


def _policy_id(policy: TruncationPolicy) -> str:
    if policy.exact:
        return "exact"
    parts = []
    if policy.sine_cutoff is not None:
        parts.append(f"sine{policy.sine_cutoff}")
    if policy.max_terms is not None:
        parts.append(f"max{policy.max_terms}")
    return "-".join(parts)
