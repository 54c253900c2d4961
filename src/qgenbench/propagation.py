"""Heisenberg-picture Pauli propagation with configurable truncation.

The observable (a real-coefficient Pauli sum) is conjugated layer by layer
from the last circuit layer to the first; the final expectation is read off
on |0...0>.  Terms are held in flat numpy arrays: one packed uint64 key
(x << 32) | z per string, which caps the register at 32 qubits, plus the
coefficient and the sine count, always in key order.  The policy truncates
the observable once; after that, each rotation that splits a term is one
kernel, `_rotate`.  Only the terms that anticommute with the generator G
move: each keeps a cosine term in place and sends a sine term to the key of
GP, which also anticommutes with G.  A sine term can therefore land only on
its orbit partner, and one sort of the orbit representatives min(k, k ^ g),
g the generator's key, finds those pairs, which merge in place.  The other
sine terms past the sine cutoff go straight into `dropped_mass`; only the
rest are merged into the sorted keys, and the term cap then finds its
threshold with ``np.partition``.  A rotation layer first finds, with one OR-reduce of
the keys, the qubits on which some term anticommutes with its axis; the
other rotations split nothing and are skipped.  A brick layer runs its gates
through the kernel one at a time.  A CZ layer creates no new terms: its
gates commute, so the whole layer is one Clifford map of the keys,
z <- z ^ M x with M the layer's adjacency matrix, plus one closed-form sign;
the map permutes the keys, and one sort puts them back in order.

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

    The keys are distinct and in increasing order: every kernel takes and
    returns its terms in key order.
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


def _sine_signs(ak: np.ndarray, sk: np.ndarray, gx: int, gz: int) -> np.ndarray:
    """Sign bits (bit 63 set for -1) of the sine terms iGP of the strings P
    with keys `ak`, whose products GP have keys `sk`.

    With P = i^(x.z) X^x Z^z, GP = i^k X^x3 Z^z3 for x3, z3 the XORs and
    k = gx.gz + px.pz + 2 gz.px - x3.z3, so iGP carries the real phase
    i^(1+k), -1 when bit 1 of 1+k is set; uint8 wraps modulo 256, which
    keeps it.
    """
    hi = np.uint64(32)
    ph = (np.bitwise_count((ak >> hi) & ak) + 2 * np.bitwise_count(ak & np.uint64(gz << 32))
          - np.bitwise_count((sk >> hi) & sk) + ((gx & gz).bit_count() + 1))
    return (ph & np.uint8(2)).astype(np.uint64) << np.uint64(62)


def _rotate(t: _TermArrays, gkey: int, c2: float, s2: float, pol: TruncationPolicy,
            report: PropagationReport) -> _TermArrays:
    """Conjugate by the rotation about G, the Pauli string of packed key
    `gkey`: a term P that anticommutes with G becomes c2*P + s2*(iGP), with
    c2 and s2 the cosine and sine of twice the rotation angle.  The sine
    terms are merged into the terms and the result truncated; `t` itself is
    returned when no term anticommutes with G.

    `t` is in key order with distinct keys, each |c| >= COEFF_EPS, and under
    a sine cutoff every count is within it, as truncation leaves them.  Only
    the m anticommuting terms move.  GP anticommutes with G as P does, so a
    sine term can land only on the anticommuting term GP, and then the sine
    term of GP lands on P: duplicates are the orbit pairs {P, GP} inside the
    anticommuting set, found by one sort of min(key, key ^ gkey).  A pair
    merges in place.  Of the other sine terms, those past the cutoff go
    straight into `dropped_mass`, summed in the order of their keys, and
    only the rest are merged into the keys.  The survivors come out in key
    order.  Bit for bit, the result is that of merging every rotated term
    into a sorted set first and truncating that set after: the same
    coefficients, and the cut magnitudes summed in merged key order.
    """
    gx, gz = gkey >> 32, gkey & 0xFFFFFFFF
    # P anticommutes with G when |x & gz| + |z & gx| is odd: one popcount
    # against the generator's key with x and z swapped, or, when that mask
    # has one bit (an X or Z generator), a test of that bit
    swapped = (gz << 32) | gx
    hit = t.k & np.uint64(swapped)
    anti = np.flatnonzero(hit != 0 if swapped.bit_count() == 1
                          else (np.bitwise_count(hit) & np.uint8(1)).view(bool))
    if not len(anti):
        return t
    ak, ac, count = t.k[anti], t.c[anti], t.s[anti]
    sk = ak ^ np.uint64(gkey)  # P -> GP is a bijection: distinct keys
    cc = ac * c2
    sc = ac * s2  # unsigned; only the sine terms that stay are signed
    free = np.abs(sc) >= COEFF_EPS  # sine terms neither under COEFF_EPS nor landed
    rep = np.minimum(ak, sk)  # one key per orbit {P, GP}
    # each stable sort here runs in about linear time on the sorted runs
    # that XOR with a fixed key leaves in sorted keys
    orbit = np.argsort(rep, kind="stable")
    rep = rep[orbit]
    pair = np.flatnonzero(rep[1:] == rep[:-1])
    if len(pair):
        # the sine term of each one lands on the other
        to = np.concatenate([orbit[pair], orbit[pair + 1]])
        of = np.concatenate([orbit[pair + 1], orbit[pair]])
        cc[to] += (sc[of].view(np.uint64) ^ _sine_signs(ak[of], sk[of], gx, gz)).view(np.float64)
        count[to] = np.minimum(count[to], count[of] + 1)
        free[to] = False
    if pol.sine_cutoff is not None:
        # an unlanded sine term passes the cutoff when its term sits at it
        past = count >= pol.sine_cutoff
        cut = np.flatnonzero(free & past)
        if len(cut):
            cut = cut[np.argsort(sk[cut], kind="stable")]
            report.dropped_mass += float(np.sum(np.abs(sc[cut])))
        free &= ~past
    new = np.flatnonzero(free)
    new = new[np.argsort(sk[new], kind="stable")]
    nk = sk[new]
    k = np.concatenate([t.k, nk])
    c = np.concatenate([t.c, (sc[new].view(np.uint64)
                              ^ _sine_signs(ak[new], nk, gx, gz)).view(np.float64)])
    s = np.concatenate([t.s, count[new] + 1])
    c[anti] = cc
    s[anti] = count
    gone = anti[np.abs(cc) < COEFF_EPS]
    if len(gone):
        kept = np.ones(len(k), dtype=bool)
        kept[gone] = False
        k, c, s = k[kept], c[kept], s[kept]
    if len(new):
        # two sorted runs: the stable sort merges them in linear time
        order = np.argsort(k, kind="stable")
        k, c, s = k[order], c[order], s[order]
    capped = _term_cap(c, pol, report)
    if capped is not None:
        k, c, s = k[capped], c[capped], s[capped]
    return _TermArrays(k, c, s)


def _apply_cz_layer(t: _TermArrays, edges: Sequence[Tuple[int, int]]) -> _TermArrays:
    """Conjugate by every CZ of one layer at once.

    CZ_E X^x Z^z CZ_E = (-1)^e(x) X^x Z^(z ^ M x), with M the adjacency
    matrix of the edges E and e(x) the number of edges inside supp(x).  For
    P = i^(x.z) X^x Z^z that makes the new coefficient sign
    (-1)^(e(x) + (x.z - x.z')/2) for z' = z ^ M x.  M x and the parity of
    e(x) are linear in x over GF(2); they come from one 256-entry table per
    byte of x, whose words hold M x in the low half and, in the high half,
    U x for U the edges to higher qubits, so that e(x) = x.(U x) mod 2.
    The map permutes the keys; the terms come back in key order.
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
    order = np.argsort(k)  # the keys are distinct, so any sort gives one order
    return _TermArrays(k[order], c[order], t.s[order])


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
    cut = len(c) - pol.max_terms
    mag = np.abs(c)
    part = np.partition(mag, cut)
    edge = part[cut]
    keep = mag > edge
    ties = np.flatnonzero(mag == edge)
    keep[ties[:pol.max_terms - np.count_nonzero(keep)]] = True
    # lost magnitudes summed in descending order; part[:cut] holds the same
    # multiset as mag[~keep]: everything below the edge, the rest edge ties
    report.dropped_mass += float(-np.sum(np.sort(-part[:cut])))
    return np.flatnonzero(keep)


def _truncate(t: _TermArrays, pol: TruncationPolicy, report: PropagationReport) -> _TermArrays:
    """The policy applied to the observable, before any gate: the term cap
    alone, as every sine count is still 0 and a sine cutoff is >= 0."""
    keep = _term_cap(t.c, pol, report)
    return t if keep is None else t.take(keep)


def propagate(circuit: Circuit, observable: PauliSum,
              policy: TruncationPolicy) -> PropagationReport:
    """Conjugate `observable` back through `circuit` and evaluate on |0...0>."""
    if circuit.n > MAX_PROP_QUBITS:
        raise ValueError(f"propagation engine caps at {MAX_PROP_QUBITS} qubits")
    if observable.n != circuit.n:
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
                t = _rotate(t, gkey, math.cos(2 * angle), math.sin(2 * angle), policy, report)
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


def study_policy(n: int, sine_cutoff: Optional[int] = None, max_terms: Optional[int] = None,
                 exact: bool = False) -> TruncationPolicy:
    """The propagation study's policy at n: a sine cutoff of ceil(log2 n) unless
    `sine_cutoff` or `exact` is given, plus the optional term cap."""
    if sine_cutoff is None and not exact:
        sine_cutoff = sine_cutoff_default(n)
    return TruncationPolicy(sine_cutoff=sine_cutoff, max_terms=max_terms, exact=exact)


def benchmark_propagation(ns, policy: Optional[TruncationPolicy], trials: int, seed: int, *,
                          layers: Optional[int] = None, p: Optional[float] = None,
                          tau2: Optional[float] = None, trainable_depth: int = 0,
                          exact_check_max_n: int = 12) -> List[dict]:
    """Propagation scaling study of Z_0 over system sizes.

    Defaults per n: layers = ceil(ln n), p = ln(n)/n, tau2 just under 1/4,
    and (when `policy` is None) `study_policy(n)`.  For n <= `exact_check_max_n`
    the statevector error is recorded.  Returns one CSV-ready row dict per
    (n, trial).
    """
    from . import statevector as sv
    from .circuits import TAU2_CONSTANT

    rows = []
    for n in ns:
        pol = policy if policy is not None else study_policy(n)
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
