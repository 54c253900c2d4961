"""Heisenberg-picture Pauli propagation with configurable truncation.

The observable (a real-coefficient Pauli sum) is conjugated layer by layer
from the last circuit layer to the first; the final expectation is read off
on |0...0>.  Terms are held in flat numpy arrays: one packed uint64 key
(x << 32) | z per string, which caps the register at 32 qubits, plus the
coefficient and the sine count.  The policy truncates the observable once;
after that, each rotation that splits a term is one kernel, `_rotate`: it
signs the sine branch with a sign-bit XOR, merges it into the terms with one
stable sort (linear time on sorted runs), flags every term that merged into
its duplicate, fell under COEFF_EPS or passed the sine cutoff, and compacts
the terms once, in key order; the term cap finds its threshold with
``np.partition``.  A rotation layer first finds, with one OR-reduce of the
keys, the qubits on which some term anticommutes with its axis; the other
rotations split nothing and are skipped.  A brick layer runs its gates
through the kernel one at a time.  A CZ layer creates no new terms:
its gates commute, so the whole layer is one Clifford map of the keys,
z <- z ^ M x with M the layer's adjacency matrix, plus one closed-form sign;
the keys come out permuted, and the next rotation that splits terms sorts
them again.

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

from .circuits import (Circuit, CZLayer, GenerativeSpec, RotationLayer, build_generative,
                       build_trainable, concatenate, default_layers, default_p, layer_gates)
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


def _generator_key(letter: str, qubits: Sequence[int]) -> int:
    """Packed key of the rotation generator `letter` on every qubit of `qubits`."""
    mask = sum(1 << q for q in qubits)
    return (mask << 32 if letter in "XY" else 0) | (mask if letter in "YZ" else 0)


def _splitting_qubits(t: _TermArrays, axis: str) -> int:
    """Bit q set when some term anticommutes with `axis` on qubit q: has a z
    bit there for X, an x bit for Z and x ^ z for Y.  A rotation on q changes
    only q's bits and truncation only removes terms, so a qubit left unset
    here stays unset while the rest of the rotation layer is applied."""
    if axis == "Y":
        return int(np.bitwise_or.reduce((t.k >> np.uint64(32)) ^ t.k) & _Z_MASK)
    bits = int(np.bitwise_or.reduce(t.k))
    return bits & 0xFFFFFFFF if axis == "X" else bits >> 32


_CUT, _GONE = np.uint8(1), np.uint8(2)  # per-term flags of _rotate; 0 keeps the term


def _rotate(t: _TermArrays, gkey: int, angle: float, pol: TruncationPolicy,
            report: PropagationReport) -> _TermArrays:
    """Conjugate by exp(-i*angle*G), G the Pauli string of packed key `gkey`,
    merge the sine branch into the terms and truncate, with one sort and one
    compaction.  Returns `t` itself when no term anticommutes with G.

    `t` holds distinct keys, and under a sine cutoff every count is within
    it, as truncation leaves them.  The survivors come out sorted by key.
    Bit for bit, the result is that of merging the rotated terms into a
    sorted set first and truncating that set after: the same coefficients,
    and the cut magnitudes summed into `dropped_mass` in merged key order.
    """
    gx, gz = gkey >> 32, gkey & 0xFFFFFFFF
    # P anticommutes with G when |x & gz| + |z & gx| is odd: one popcount
    # against the generator's key with x and z swapped
    anti = np.flatnonzero(
        (np.bitwise_count(t.k & np.uint64((gz << 32) | gx)) & np.uint8(1)).view(bool))
    if not len(anti):
        return t
    c2, s2 = math.cos(2 * angle), math.sin(2 * angle)
    n = len(t)
    ak, ac = t.k[anti], t.c[anti]
    # the sine branch P -> iGP is a bijection, so its keys are distinct
    sk = ak ^ np.uint64(gkey)
    # its sign: with P = i^(x.z) X^x Z^z, GP = i^k X^x3 Z^z3 for x3, z3 the
    # XORs and k = gx.gz + px.pz + 2 gz.px - x3.z3, so iGP carries the real
    # phase i^(1+k), -1 when bit 1 of 1+k is set; uint8 wraps modulo 256,
    # which keeps it
    hi = np.uint64(32)
    ph = (np.bitwise_count((ak >> hi) & ak) + 2 * np.bitwise_count(ak & np.uint64(gz << 32))
          - np.bitwise_count((sk >> hi) & sk) + ((gx & gz).bit_count() + 1))
    flip = (ph & np.uint8(2)).astype(np.uint64) << np.uint64(62)
    k = np.concatenate([t.k, sk])
    c = np.concatenate([t.c, ((ac * s2).view(np.uint64) ^ flip).view(np.float64)])
    c[anti] = ac * c2
    s = np.concatenate([t.s, t.s[anti] + 1])
    # the stable sort finds the sorted terms as one run; a key that occurs
    # twice is a term a of t followed by the sine term b that lands on it
    order = np.argsort(k, kind="stable")
    sorted_k = k[order]
    dup = np.flatnonzero(sorted_k[1:] == sorted_k[:-1])
    a, b = order[dup], order[dup + 1]
    c[a] += c[b]
    s[a] = np.minimum(s[a], s[b])
    flag = np.zeros(len(k), dtype=np.uint8)
    if pol.sine_cutoff is not None:
        # only an unmerged sine term can pass the cutoff: a merged one keeps
        # the count of the term of t it lands on
        flag[n:] = s[n:] > pol.sine_cutoff
    flag[np.abs(c) < COEFF_EPS] = _GONE
    flag[b] = _GONE
    flag = flag[order]
    cut = order[flag == _CUT]
    if len(cut):
        report.dropped_mass += float(np.sum(np.abs(c[cut])))
    keep = order[flag == 0]
    kept_c = c[keep]
    capped = _term_cap(kept_c, pol, report)
    if capped is not None:
        keep, kept_c = keep[capped], kept_c[capped]
    return _TermArrays(k[keep], kept_c, s[keep])


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


def _term_cap(c: np.ndarray, pol: TruncationPolicy,
              report: PropagationReport) -> Optional[np.ndarray]:
    """Indices of the coefficients `c` that the term cap keeps, or None when
    all of them fit; exact mode raises instead of dropping."""
    if pol.max_terms is None or len(c) <= pol.max_terms:
        return None
    if pol.exact:
        report.final_terms = len(c)
        raise ResourceLimitError(
            f"exact mode exceeded max_terms={pol.max_terms} ({len(c)} terms)", report)
    # keep the max_terms largest |c|, ties going to the lower index: the set
    # a stable descending sort would keep
    mag = np.abs(c)
    edge = np.partition(mag, len(c) - pol.max_terms)[len(c) - pol.max_terms]
    keep = mag > edge
    ties = np.flatnonzero(mag == edge)
    keep[ties[:pol.max_terms - np.count_nonzero(keep)]] = True
    # lost magnitudes summed in descending order
    report.dropped_mass += float(-np.sum(np.sort(-mag[~keep])))
    return np.flatnonzero(keep)


def _truncate(t: _TermArrays, pol: TruncationPolicy, report: PropagationReport) -> _TermArrays:
    """The policy applied to the observable, before any gate."""
    if pol.sine_cutoff is not None:
        drop = t.s > pol.sine_cutoff
        if drop.any():
            report.dropped_mass += float(np.sum(np.abs(t.c[drop])))
            t = t.take(np.flatnonzero(~drop))
    keep = _term_cap(t.c, pol, report)
    return t if keep is None else t.take(keep)


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
    # truncation work, as a CZ layer, or a rotation that splits nothing,
    # changes no sine count, |c| or term count
    t = _truncate(t, policy, report)
    for layer in reversed(circuit.layers):
        if isinstance(layer, CZLayer):
            if layer.edges:
                t = _apply_cz_layer(t, layer.edges)
                report.terms_per_step += [len(t)] * len(layer.edges)
                report.peak_terms = max(report.peak_terms, len(t))
            continue
        if isinstance(layer, RotationLayer):
            # one pass finds the qubits whose rotation can split a term
            live = _splitting_qubits(t, layer.axis)
            gates = [(_generator_key(layer.axis, (q,)) if (live >> q) & 1 else None, angle)
                     for q, angle in reversed(list(enumerate(layer.angles)))]
        else:
            gates = [(_generator_key(gate.kind[1], gate.qubits), gate.angle)
                     for gate in reversed(list(layer_gates(layer, circuit.theta)))]
        for gkey, angle in gates:
            if gkey is not None:
                t = _rotate(t, gkey, angle, policy, report)
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
