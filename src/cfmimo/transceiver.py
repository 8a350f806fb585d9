"""Combiners, precoders, and Monte Carlo SINR evaluation for both links.

Every scheme produces stacked (K, L, N) combiners/precoders per realization;
detection units (the blocks) are the full array, the EDUs, or single O-RUs
depending on the scheme. Each realization's combiners come from that
realization's channel estimates only, and one batched kernel builds them for
a block of realizations (``CombinerWorkspace.combiners``). SINR expectations
are sample means over the realization batch.

One loop over realization blocks reduces the batch for every scheme and
link (``moment_pass``). It draws each block's channels h and estimates hhat
once (a drop samples them fresh, the standalone SINR calls slice given
whole-batch arrays), and each scheme builds the block's combiners, forms
the link products s[t, k, i] = v_k^H h_i of the moment sets its links read
(one shared by an unquantized uplink and an undrifted downlink, a quantized
uplink's, a drifted downlink's), and adds s_kk, |s_ki|^2 and the
per-(UE, O-RU) combiner energies to running sums (``_MomentSums``) before
the block is dropped. So in its moment pass a drop holds at most the
statistics that sampling reads (R^(1/2) and W; it has let R, Phi and C go
once their readers were done), one block's channels, estimates, combiners
and products, and the sums.

The uplink SINR is p_k |E[v_k^H h_k]|^2 over
sum_{i != k} p_i E|v_k^H h_i|^2 + sigma^2 E||v_k||^2: the UatF form
without the beamforming-uncertainty term p_k Var(v_k^H h_k) in the
denominator, so it is not the UatF lower bound and can exceed it. The
report carries that term separately.

The downlink SINR is the use-and-then-forget (UatF) bound,
|E[h_k^H w_k]|^2 / (sum_i E|h_k^H w_i|^2 - |E[h_k^H w_k]|^2 + sigma^2),
for precoders w_k = a_k w'_k: the raw precoders w' (the uplink combiners)
times the per-UE amplitude a_k = sqrt(p_dl,k) / sqrt(E||w'_k||^2). Since
h_k^H w_i = a_i conj(w'_i^H h_k), every moment is a moment of the products
w'_i^H h_k against the raw precoders, scaled by a_i^2, and the normalized
precoders are never built.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import _blocks, phase_drift
from .deployment import _one_hot, unit_labels
from .power import downlink_power
from .scenario import SCHEMES, SchemeSpec

_PLAN_CACHE = 32  # combiner plans kept: a campaign's schemes and a few masks


@dataclass(frozen=True)
class Association:
    """Binary UE-O-RU service indicators and derived serving sets."""

    delta: np.ndarray  # (K, L) bool

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=bool))

    @classmethod
    def all_serve(cls, num_ue: int, num_oru: int) -> "Association":
        return cls(np.ones((num_ue, num_oru), dtype=bool))

    @classmethod
    def from_edu(cls, delta_km: np.ndarray, genome: np.ndarray) -> "Association":
        """Expand an EDU-granularity (K, M) association to O-RU granularity."""
        delta_km = np.asarray(delta_km, dtype=bool)
        genome = np.asarray(genome, dtype=int)
        return cls(delta_km[:, genome])


@dataclass
class SinrReport:
    """Per-UE SINR decomposition for one scheme and link direction."""

    scheme: str
    link: str  # "ul" | "dl"
    signal: np.ndarray  # (K,) coherent numerator terms
    interference: np.ndarray  # (K,)
    noise: np.ndarray  # (K,)
    gamma: np.ndarray  # (K,)
    se: np.ndarray  # (K,) bits/s/Hz
    # (K,) beamforming uncertainty: p_k Var(v_k^H h_k) on the uplink, left
    # out of its denominator; Var(h_k^H w_k) on the downlink, part of its
    # interference.
    uncertainty: np.ndarray

    @property
    def sum_se(self) -> float:
        return float(self.se.sum())


def se_from_sinr(gamma):
    """Spectral efficiency log2(1 + gamma), no overhead prefactor."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("SINR must be >= 0")
    return np.log2(1.0 + gamma)


def quantize(samples: np.ndarray, bits: int | str, axis=None) -> np.ndarray:
    """Uniform mid-rise quantizer applied per real/imag component.

    The +/-4-standard-deviation range of the batch sets the step size
    (2^bits cells across it); values beyond the range snap to the nearest
    lattice point rather than saturating, so the reconstruction error is at
    most half a step everywhere. ``bits="infinite"`` is the identity, as is
    a batch whose spread is negligible against its magnitude. ``axis`` names
    the axes that form one batch (all by default); the remaining axes index
    batches that are quantized on their own statistics.
    """
    if bits == "infinite":
        return samples
    bits = int(bits)
    if bits < 1:
        raise ValueError("bits must be >= 1 or 'infinite'")
    x = np.asarray(samples)

    def _q(v: np.ndarray) -> np.ndarray:
        sigma = v.std(axis=axis, keepdims=True)
        step = 8.0 * sigma / (2**bits)
        peak = np.abs(v).max(axis=axis, keepdims=True, initial=0.0)
        keep = (sigma == 0.0) | (step * 2.0**52 <= peak)
        step = np.where(keep, 1.0, step)
        return np.where(keep, v, (np.floor(v / step) + 0.5) * step)

    if np.iscomplexobj(x):
        return _q(x.real) + 1j * _q(x.imag)
    return _q(x)


def _solve_regularized(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B for a batch of noise-regularized Gram matrices A.

    The sigma^2 ridge makes singularity unreachable in exact arithmetic; if
    a factorization still fails, each failing matrix (and only it) gets a
    diagonal jitter of 1e-12 * trace/N, once, and the event is reported.
    """
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        pass
    n = A.shape[-1]
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, batch + A.shape[-2:]).reshape(-1, n, n)
    B = np.broadcast_to(B, batch + B.shape[-2:]).reshape(-1, n, B.shape[-1])
    X = np.empty(B.shape, dtype=np.result_type(A, B))
    for i in range(A.shape[0]):
        try:
            X[i] = np.linalg.solve(A[i], B[i])
        except np.linalg.LinAlgError:
            jitter = 1e-12 * np.trace(A[i]).real / n
            warnings.warn(
                f"combiner solve failed on a singular matrix; retried with "
                f"diagonal jitter {jitter:.3e}"
            )
            X[i] = np.linalg.solve(A[i] + jitter * np.eye(n), B[i])
    return X.reshape(batch + X.shape[-2:])


@lru_cache(maxsize=_PLAN_CACHE)
def _combiner_plan(units: bytes, mask: bytes, num_ue: int, N: int) -> tuple:
    """The structure of a ``CombinerWorkspace``, which depends only on the
    O-RUs' unit labels (``np.intp`` bytes), the (K, L) service mask (bool
    bytes) and N, so drops with the same ones share it.

    Returns read-only (local, wide, sets, cols, read, groups, item_bytes):
    the O-RUs solved in the antenna domain, the Woodbury O-RUs with each
    atom's O-RUs side by side, the (S, A) atoms of each nonempty serving
    set, the (S, K, R) identity columns each set is solved for, the
    (2, A, K) set and column that each (atom, UE) reads, the (atoms,
    O-RUs, stacked antennas) slices of each atom size and the bytes per
    realization of a block's largest array. Without Woodbury O-RUs,
    ``sets``, ``cols`` and ``read`` are None.
    """
    units = np.frombuffer(units, dtype=np.intp)
    K = num_ue
    delta = np.frombuffer(mask, dtype=bool).reshape(K, -1)
    local = (np.bincount(units)[units] == 1) & (N <= K)
    # Bytes per realization of the largest array of a block: Hl and G
    # here, the Woodbury arrays below.
    item_bytes = 16 * int(local.sum()) * N * max(N, K)
    wide = np.flatnonzero(~local)
    local = np.flatnonzero(local)
    local.flags.writeable = False
    if not wide.size:
        wide.flags.writeable = False
        return local, wide, None, None, None, (), item_bytes
    # Serving set of every (UE, unit) over the Woodbury O-RUs; each
    # distinct nonempty set is one system. A UE that no O-RU of a unit
    # serves has the empty set there, and its combiners are masked.
    wide_units = units[wide]
    in_unit = _one_hot(wide_units, units.max() + 1).T  # (U, Lw)
    sets = delta[:, None, wide] & in_unit[None]
    sets, which = np.unique(sets.reshape(-1, wide.size), axis=0, return_inverse=True)
    set_of = which.reshape(K, -1)[:, wide_units].T  # (Lw, K)
    # Atoms: O-RUs of one unit that serve the same UEs. Number them by
    # size and put each atom's O-RUs side by side, so that atoms of one
    # size form one batch.
    key = np.column_stack([wide_units, delta[:, wide].T])
    _, first, atom = np.unique(key, axis=0, return_index=True, return_inverse=True)
    size = np.bincount(atom)
    by_size = np.argsort(size, kind="stable")
    order = np.argsort(np.argsort(by_size)[atom], kind="stable")
    first = first[by_size]
    set_of = set_of[first]  # (A, K)
    # Each set is solved only for the identity columns of the UEs that
    # read it, padded with zero columns to the largest such count R: an
    # all-serve set reads every column, the empty set none.
    ue = np.arange(K)
    nonempty = sets.any(axis=1)
    reads = np.zeros((len(sets), K), dtype=bool)
    reads[set_of, ue] = True
    reads &= nonempty[:, None]
    R = int(reads.sum(axis=1).max())
    slot = np.cumsum(reads, axis=1) - 1  # UE k's column among its set's
    # (set, column) that each (atom, UE) reads; a pair on the empty set,
    # whose combiners are masked, reads column 0 of set 0.
    on = reads[set_of, ue]
    read = np.stack([
        np.where(on, (np.cumsum(nonempty) - 1)[set_of], 0),
        np.where(on, slot[set_of, ue], 0),
    ])
    sets, reads, slot = sets[nonempty], reads[nonempty], slot[nonempty]
    cols = np.zeros((len(sets), K, R))
    s, k = np.nonzero(reads)
    cols[s, k, slot[s, k]] = 1.0
    # (atoms, their O-RUs, stacked antennas per atom) for each size
    groups = []
    a = l = 0
    for n, count in zip(*np.unique(size, return_counts=True)):
        groups.append((slice(a, a + count), slice(l, l + count * n), n * N))
        a, l = a + count, l + count * n
    # Hw, F, a group's conjugate and its product are (Lw N, K) each and
    # live at once; the per-set systems and per-atom partials are K x K.
    item_bytes = max(
        item_bytes, 16 * K * max(4 * wide.size * N, len(sets) * K, len(first) * K)
    )
    plan = (wide[order], sets[:, first].astype(float), cols, read)
    for array in plan:
        array.flags.writeable = False
    return (local, *plan, tuple(groups), item_bytes)


class CombinerWorkspace:
    """One scheme's combiners for a whole realization batch.

    The MMSE combiner of UE k on its serving antennas S inside a unit is
    v_k = p_k (sum_i p_i (hh_i hh_i^H + C_i) + sigma^2 I)_S^-1 hh_k,S, the
    sum running over every UE. With D_l = sum_i p_i C_il + sigma^2 I
    (block diagonal over O-RUs, inverted once) it is solved in one of two
    forms, both batched over realizations:

    - units of one O-RU with N <= K: the N x N Gram of each (realization,
      O-RU) directly;
    - every other unit: the K x K Woodbury form
      v_k = p_k D^-1 H (I + P Q)^-1 e_k with Q = sum over S of the
      partials Q_l = hh_l^H D_l^-1 hh_l. Each distinct serving set of a unit
      (one per unit for all-serve and EDU-consistent masks, up to one per UE
      otherwise) is one K x K system, solved only for the e_k of the UEs
      that use it (all K for an all-serve set). (I + P Q) rather than
      (P^-1 + Q) keeps a UE with zero power well defined. The O-RUs of a unit that
      serve the same UEs (an atom: the whole unit for all-serve and
      EDU-consistent masks, single O-RUs for an arbitrary mask) lie in the
      same serving sets, so each atom gets one partial over its stacked
      antennas and one product D^-1 H (I + P Q)^-1.

    Realizations are independent, so the batch runs in blocks whose largest
    temporary fits the kernels' working-set budget; each block makes the
    same products and solves, row for row, as the whole batch would.

    The units, serving sets, atoms and block size come from the mask, the
    unit labels and N alone (``_combiner_plan``, cached), so a workspace
    made for another drop with the same ones only forms D and its inverses.
    """

    def __init__(
        self,
        spec: SchemeSpec,
        association: Association,
        genome: np.ndarray,
        C: np.ndarray,
        p_mw: np.ndarray,
        noise_mw: float,
    ):
        self.spec = spec
        self.delta = association.delta
        K, L = self.delta.shape
        self.N = N = C.shape[-1]
        self.p = np.asarray(p_mw, dtype=float)
        self.units = np.asarray(unit_labels(spec.granularity, genome, L), dtype=np.intp)
        if spec.rule != "mmse":
            return
        (self.local, self.wide, self.sets, self.cols, self.read, self.groups,
         self.item_bytes) = _combiner_plan(self.units.tobytes(), self.delta.tobytes(), K, N)
        D = np.einsum("i,ilnm->lnm", self.p, C) + float(noise_mw) * np.eye(N)
        self.D_local = D[self.local]
        if self.wide.size:
            self.Dinv = _solve_regularized(D[self.wide], np.eye(N))

    def combiners(self, hhat: np.ndarray) -> np.ndarray:
        """Stacked combiner/precoder vectors (T, K, L, N) for a batch."""
        if self.spec.rule == "mrc":
            return np.where(self.delta[:, :, None], hhat, 0.0)
        v = np.zeros_like(hhat)
        for b in _blocks(hhat.shape[0], self.item_bytes):
            self._fill(hhat[b], v[b])
        v[:, ~self.delta] = 0.0
        return v

    def _fill(self, hhat: np.ndarray, v: np.ndarray) -> None:
        """Write the MMSE combiners of a realization block into ``v``."""
        T, K, _, N = hhat.shape
        p = self.p
        H = hhat.transpose(0, 2, 3, 1)  # (T, L, N, K): columns are UEs
        if self.local.size:
            Hl = H[:, self.local] * p
            G = Hl @ np.conj(H[:, self.local]).swapaxes(-1, -2) + self.D_local
            v[:, :, self.local] = _solve_regularized(G, Hl).transpose(0, 3, 1, 2)
        if self.wide.size and len(self.sets):  # else every combiner is masked
            Hw = H[:, self.wide]  # (T, Lw, N, K), atoms side by side
            F = self.Dinv @ Hw  # D_l^-1 hh_l
            A = self.read.shape[1]
            Q = np.empty((T, A, K, K), dtype=complex)
            for atoms, orus, n in self.groups:
                Ha = np.conj(Hw[:, orus]).reshape(T, -1, n, K)
                Q[:, atoms] = Ha.swapaxes(-1, -2) @ F[:, orus].reshape(T, -1, n, K)
            Qs = (self.sets @ Q.reshape(T, A, K * K)).reshape(T, -1, K, K)
            del Q
            X = _solve_regularized(np.eye(K) + p[:, None] * Qs, self.cols)
            # Y[t, a, :, k]: the column of (I + P Q)^-1 e_k of the set that
            # (k, atom a) reads
            Y = X.swapaxes(-1, -2)[:, self.read[0], self.read[1]].swapaxes(-1, -2)
            for atoms, orus, n in self.groups:
                Va = (F[:, orus].reshape(T, -1, n, K) @ Y[:, atoms]) * p
                v[:, :, self.wide[orus]] = Va.reshape(T, -1, N, K).transpose(0, 3, 1, 2)


@dataclass(frozen=True)
class LinkMoments:
    """Moments of one link over a realization batch (see ``_MomentSums``)
    and the link they belong to."""

    num: np.ndarray  # (K,) E[s_kk]
    isq: np.ndarray  # (K, K) E|s_ki|^2
    energy: np.ndarray  # (K, L) E||v_kl||^2
    bits: int | str  # quantizer of the per-unit coefficients
    drifted: bool  # channels rotated by per-O-RU phase drift


def _check_moments(moments: LinkMoments, bits: int | str, drifted: bool) -> None:
    """Raise ``ValueError`` unless given ``moments`` belong to a link that
    quantizes to ``bits`` and is ``drifted`` or not."""

    def kind(bits, drifted):
        quant = "unquantized" if bits == "infinite" else f"quantized to {bits} bits"
        return f"{quant}, {'drifted' if drifted else 'undrifted'}"

    if (moments.bits, moments.drifted) != (bits, drifted):
        raise ValueError(
            f"given link moments are {kind(moments.bits, moments.drifted)}, "
            f"not {kind(bits, drifted)}"
        )


class _MomentSums:
    """One scheme's running moment sums of the ``links`` asked for, by name,
    over a realization batch that arrives block by block: ``links`` maps
    "ul" to its quantizer bits and "dl" to the batch's (T, L) drift phasors
    or None.

    Each link's moments are E[s_kk] (K,), E|s_ki|^2 (K, K) and E||v_kl||^2
    (K, L) over the realizations, where s[t, k, i] = v_k^H h_i. A quantized
    uplink quantizes the per-unit coefficients of the workspace's units per
    realization, then sums them; a drifted downlink rotates each O-RU's
    channels. An unquantized uplink and an undrifted downlink share one set.

    ``add`` builds a block's combiners (``workspace.combiners``), adds its
    terms to the sums (``_add_rows``) and keeps nothing of the block;
    ``finish`` averages the sums over the T realizations.
    """

    def __init__(self, workspace: CombinerWorkspace, links: dict):
        self.workspace = workspace
        self.bits = links.get("ul", "infinite")
        self.rot = links.get("dl")
        # the set each link reads: its own, or the plain one the two share
        own = {"ul": self.bits != "infinite", "dl": self.rot is not None}
        self.reads = {link: link if own[link] else "plain" for link in links}
        units = workspace.units
        self.E = _one_hot(units, units.max() + 1) if own["ul"] else None
        self.sums = {name: [None, None] for name in self.reads.values()}  # s_kk, |s_ki|^2
        self.energy = None

    def add(self, b: slice, hhat: np.ndarray, h: np.ndarray) -> None:
        """Add the (len(b), K, L, N) estimates and channels of realizations b."""
        _, K, L, N = h.shape
        v = self.workspace.combiners(hhat)
        for name, total in self.sums.items():
            hb = h * self.rot[b, None, :, None] if name == "dl" else h
            if name == "ul":
                g = np.einsum("tkln,tiln->tkil", np.conj(v), hb) @ self.E
                s = quantize(g, self.bits, axis=(1, 2, 3)).sum(axis=-1)
            else:
                vb, hb = v.reshape(-1, K, L * N), hb.reshape(-1, K, L * N)
                s = np.conj(vb) @ hb.swapaxes(1, 2)
            total[0] = _add_rows(total[0], np.diagonal(s, axis1=1, axis2=2))
            total[1] = _add_rows(total[1], np.abs(s) ** 2)
        # the antennas added in order: for N < 8 the bits of .sum(axis=-1),
        # which costs several times more on so short an axis
        e = np.abs(v) ** 2
        for n in range(1, N):
            e[..., 0] += e[..., n]
        self.energy = _add_rows(self.energy, e[..., 0])

    def finish(self, T: int) -> dict[str, LinkMoments]:
        """Each link's moments, by name."""
        energy = self.energy.sum(axis=0) / T
        out = {}
        for name, (num, isq) in self.sums.items():
            kind = (self.bits, False) if name == "ul" else ("infinite", name == "dl")
            out[name] = LinkMoments(num.sum(axis=0) / T, isq.sum(axis=0) / T, energy, *kind)
        return {link: out[name] for link, name in self.reads.items()}


def moment_pass(
    workspaces: list[CombinerWorkspace],
    links: dict,
    T: int,
    draw: Callable[[slice], tuple[np.ndarray, np.ndarray]],
) -> list[dict[str, LinkMoments]]:
    """Each workspace's moments of the ``links`` (see ``_MomentSums``) over
    a batch of T realizations, in one pass.

    The realizations run in blocks whose largest array, v, h or g, takes
    16 K L N bytes per realization (16 K L max(K, N) with a quantized
    uplink), as many as ``channel._BLOCK_BYTES`` allows. ``draw(b)`` gives
    the (h, hhat) channels and estimates, (len(b), K, L, N) each, of the
    realization slice b, once per block, and every workspace adds that
    block to its sums.
    """
    if T < 2:
        raise ValueError("need at least 2 realizations")
    sums = [_MomentSums(ws, links) for ws in workspaces]
    (K, L), N = workspaces[0].delta.shape, workspaces[0].N
    for b in _blocks(T, 16 * K * L * (N if sums[0].E is None else max(K, N))):
        h, hhat = draw(b)
        for scheme_sums in sums:
            scheme_sums.add(b, hhat, h)
    return [scheme_sums.finish(T) for scheme_sums in sums]


def _link_moments(
    workspace: CombinerWorkspace, hhat: np.ndarray, h: np.ndarray, links: dict
) -> dict[str, LinkMoments]:
    """One scheme's ``moment_pass`` over given whole-batch (T, K, L, N)
    estimates ``hhat`` and channels ``h``."""
    return moment_pass([workspace], links, len(h), lambda b: (h[b], hhat[b]))[0]


def _add_rows(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """``total``, the (1, ...) sum of the blocks so far (None at first), with
    the (b, ...) ``rows`` added one after another, as ``.mean(axis=0)`` adds
    them. numpy adds a column of single terms pairwise, so such terms stay one
    per realization until the final ``.sum(axis=0)``."""
    stack = rows if total is None else np.concatenate([total, rows])
    if rows[0].size == 1:
        return stack
    return np.add.reduce(stack, axis=0, keepdims=True)


def uplink_sinr(
    scheme: str,
    h: np.ndarray | None,
    hhat: np.ndarray | None,
    C: np.ndarray,
    association: Association,
    genome: np.ndarray,
    p_mw: np.ndarray,
    noise_mw: float,
    quantizer_bits: int | str = "infinite",
    moments: LinkMoments | None = None,
) -> SinrReport:
    """Uplink SINR/SE per UE, Monte Carlo over realizations.

    gamma_k = p_k |E[v_k^H h_k]|^2 /
    (sum_{i != k} p_i E|v_k^H h_i|^2 + sigma^2 E||v_k||^2). This is the
    use-and-then-forget (UatF) form without its beamforming-uncertainty
    term p_k Var(v_k^H h_k), so it is at least the UatF bound and not a
    lower bound on capacity. A UE that is unserved or has p_k = 0 gets 0.

    The combiners come from each realization's own estimates. The per-unit
    detected-symbol coefficients are optionally quantized, each realization
    on its own statistics, summed over units, and the coherent/interference/
    noise moments averaged over the batch (``_link_moments``). The uplink may
    be given its ``moments``, unquantized or quantized to ``quantizer_bits``
    and undrifted, in place of that pass; then it reads neither ``h`` nor
    ``hhat``, and K comes from the association.
    """
    spec = SCHEMES[scheme]
    K = association.delta.shape[0]
    p = np.asarray(p_mw, dtype=float)
    if moments is None:
        ws = CombinerWorkspace(spec, association, genome, C, p, noise_mw)
        moments = _link_moments(ws, hhat, h, {"ul": quantizer_bits})["ul"]
    else:
        _check_moments(moments, quantizer_bits, False)
    num, isq, energy = moments.num, moments.isq, moments.energy

    signal = p * np.abs(num) ** 2
    interference = (isq * p[None, :]).sum(axis=1) - p * np.diagonal(isq)
    noise = noise_mw * energy.sum(axis=1)
    denom = interference + noise
    # An unserved UE and a silent one (p_k = 0: zero MMSE combiner) rate 0.
    active = association.delta.any(axis=1) & (p > 0)
    if np.any(denom[active] <= 0):
        raise AssertionError("nonpositive SINR denominator for a served UE")
    gamma = np.zeros(K)
    gamma[active] = signal[active] / denom[active]
    return SinrReport(
        scheme=scheme,
        link="ul",
        signal=signal,
        interference=interference,
        noise=noise,
        gamma=gamma,
        se=se_from_sinr(gamma),
        uncertainty=p * (np.diagonal(isq) - np.abs(num) ** 2),
    )


def normalize_precoders(
    slice_energy: np.ndarray, association: Association
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-UE amplitudes that scale raw precoders to unit average total power.

    ``slice_energy`` is the (K, L) mean energy E||w'_kl||^2 of each UE's raw
    precoder on each O-RU. Returns (amp, omega, excluded): amp[k] is
    1 / sqrt(E||w'_k||^2), so amp[k] w'_k has unit average energy; omega[k]
    is the largest per-O-RU share of that energy over the UE's serving set;
    excluded flags UEs whose raw precoder has zero norm (served by nobody),
    which get amp = 0.
    """
    total = slice_energy.sum(axis=1)
    excluded = total <= 0
    if np.any(excluded):
        warnings.warn(
            f"{int(excluded.sum())} UE(s) have zero-norm precoders and are "
            "excluded from the downlink"
        )
    total = np.where(excluded, 1.0, total)
    amp = np.where(excluded, 0.0, 1.0 / np.sqrt(total))
    bar_energy = slice_energy / total[:, None]
    counted = association.delta & ~excluded[:, None]
    omega = np.where(counted, bar_energy, 0.0).max(axis=1)
    return amp, omega, excluded


@dataclass
class DownlinkResult:
    report: SinrReport
    dl_power_mw: np.ndarray  # (K,)
    omega: np.ndarray  # (K,)
    per_oru_radiated_mw: np.ndarray  # (L,)


def downlink_sinr(
    scheme: str,
    h: np.ndarray | None,
    hhat: np.ndarray | None,
    C: np.ndarray,
    association: Association,
    genome: np.ndarray,
    beta: np.ndarray,
    p_ul_mw: np.ndarray,
    noise_ul_mw: float,
    noise_dl_mw: float,
    p_max_mw: float,
    phase_drift_deg: float = 0.0,
    drift_rng: np.random.Generator | None = None,
    moments: LinkMoments | None = None,
) -> DownlinkResult:
    """Downlink use-and-then-forget SINR/SE with heuristic power allocation.

    Raw precoders are the uplink combiners (by duality, with the uplink
    noise level as printed in the design), are normalized to unit average
    energy per UE, and carry the per-UE downlink powers allocated from
    large-scale gains and the per-O-RU cap; both enter as the per-UE
    amplitude a_k that scales the moments of the raw products w'_i^H h_k
    (see the module docstring). Optional per-O-RU phase drift rotates the
    true channels used for reception while the precoders stay matched to
    the undrifted estimates. The downlink may be given its ``moments``,
    unquantized and drifted exactly when ``phase_drift_deg`` > 0, in place
    of that pass; they are the unquantized uplink's when undrifted, and
    ``h`` and ``hhat`` are not read.
    """
    spec = SCHEMES[scheme]
    K, L = association.delta.shape
    drifted = phase_drift_deg > 0
    if moments is None:
        rot = None
        if drifted:
            if drift_rng is None:
                raise ValueError("phase drift requires an rng")
            rot = phase_drift(h.shape[0], L, phase_drift_deg, drift_rng)
        p_ul = np.asarray(p_ul_mw, dtype=float)
        ws = CombinerWorkspace(spec, association, genome, C, p_ul, noise_ul_mw)
        # num[i] = E[w'_i^H h_i], isq[i, k] = E|w'_i^H h_k|^2
        moments = _link_moments(ws, hhat, h, {"dl": rot})["dl"]
    else:
        _check_moments(moments, "infinite", drifted)
    num, isq, slice_energy = moments.num, moments.isq, moments.energy

    amp, omega, excluded = normalize_precoders(slice_energy, association)
    p_dl, _ = downlink_power(
        beta, omega, association.delta & ~excluded[:, None], p_max_mw
    )
    a2 = amp**2 * p_dl  # a_k^2
    coherent = np.abs(num) ** 2

    signal = a2 * coherent
    total_i = a2 @ isq  # sum_i a_i^2 E|w'_i^H h_k|^2
    interference = np.maximum(total_i - signal, 0.0)
    gamma = signal / (interference + noise_dl_mw)
    report = SinrReport(
        scheme=scheme,
        link="dl",
        signal=signal,
        interference=interference,
        noise=np.full(K, noise_dl_mw),
        gamma=gamma,
        se=se_from_sinr(gamma),
        uncertainty=a2 * (np.diagonal(isq) - coherent),
    )

    per_oru = a2 @ slice_energy
    return DownlinkResult(
        report=report,
        dl_power_mw=p_dl,
        omega=omega,
        per_oru_radiated_mw=per_oru,
    )
