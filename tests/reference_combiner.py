"""Frozen per-realization combiner and SINR loops, kept as a test reference.

This is the combiner/SINR code that the batched kernel in
``cfmimo.transceiver`` replaced, copied without change of arithmetic: one
realization at a time, one detection unit at a time, and one UE at a time
for units whose association rows are not uniform. The downlink keeps the
normalized precoders w_bar and the phase-drift rotation written out, as they
were before the kernel evaluated them from moments. ``test_combiner_kernel``
holds the kernel to it. Do not optimize this file.
"""

from __future__ import annotations

import warnings

import numpy as np

from cfmimo.power import downlink_power
from cfmimo.transceiver import SCHEMES


def quantize(samples, bits):
    if bits == "infinite":
        return samples
    bits = int(bits)
    x = np.asarray(samples)

    def _q(v):
        sigma = v.std()
        step = 8.0 * sigma / (2**bits)
        peak = np.abs(v).max() if v.size else 0.0
        if sigma == 0.0 or step * 2.0**52 <= peak:
            return v
        return (np.floor(v / step) + 0.5) * step

    if np.iscomplexobj(x):
        return _q(x.real) + 1j * _q(x.imag)
    return _q(x)


def _solve_regularized(A, B):
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        n = A.shape[-1]
        jitter = 1e-12 * np.trace(A).real / n
        warnings.warn(f"ill-conditioned combiner solve; added diagonal jitter {jitter:.3e}")
        return np.linalg.solve(A + jitter * np.eye(n), B)


class ReferenceWorkspace:
    def __init__(self, spec, association, genome, C, p_mw, noise_mw):
        self.spec = spec
        self.assoc = association
        K, L = association.delta.shape
        self.K, self.L = K, L
        self.N = C.shape[-1]
        self.p = np.asarray(p_mw, dtype=float)
        self.noise = float(noise_mw)
        if spec.granularity == "joint":
            self.blocks = [np.arange(L)]
        elif spec.granularity == "oru":
            self.blocks = [np.array([l]) for l in range(L)]
        else:
            genome = np.asarray(genome, dtype=int)
            self.blocks = [np.flatnonzero(genome == m) for m in range(genome.max() + 1)]
        self.num_units = len(self.blocks)
        self.unit_of = np.empty(L, dtype=int)
        for m, b in enumerate(self.blocks):
            self.unit_of[b] = m
        self.Emat = np.zeros((L, self.num_units))
        self.Emat[np.arange(L), self.unit_of] = 1.0

        if spec.rule == "mmse":
            self.Csum = np.einsum("i,ilnm->lnm", self.p, C)
            self._prepare_mmse_layout()

    def _prepare_mmse_layout(self):
        delta = self.assoc.delta
        self.block_plans = []
        for b in self.blocks:
            sub = delta[:, b]
            rows_uniform = np.all(sub.any(axis=1) == sub.all(axis=1))
            all_on = bool(sub.all())
            served = np.flatnonzero(sub.any(axis=1))
            self.block_plans.append(
                {"orus": b, "shared": all_on or rows_uniform, "served": served, "sub": sub}
            )

    def _block_csum(self, orus):
        A = orus.size * self.N
        out = np.zeros((A, A), dtype=complex)
        for j, l in enumerate(orus):
            s = j * self.N
            out[s : s + self.N, s : s + self.N] = self.Csum[l]
        return out

    def combiners(self, hhat_t):
        """Stacked (K, L, N) combiners for one realization."""
        if self.spec.rule == "mrc":
            return np.where(self.assoc.delta[:, :, None], hhat_t, 0.0)
        K, N = self.K, self.N
        v = np.zeros_like(hhat_t)
        for plan in self.block_plans:
            orus = plan["orus"]
            A_dim = orus.size * N
            Hb = hhat_t[:, orus, :].reshape(K, A_dim).T
            if plan["shared"]:
                served = plan["served"]
                if served.size == 0:
                    continue
                G = (Hb * self.p) @ np.conj(Hb.T)
                G += self._block_csum(orus)
                G[np.diag_indices_from(G)] += self.noise
                sol = _solve_regularized(G, Hb[:, served])
                sol = sol * self.p[served]
                v[served[:, None], orus[None, :], :] += sol.T.reshape(
                    served.size, orus.size, N
                )
            else:
                csum_full = self._block_csum(orus)
                for k in range(K):
                    mask = np.repeat(plan["sub"][k], N)
                    if not mask.any():
                        continue
                    Hs = Hb[mask]
                    G = (Hs * self.p) @ np.conj(Hs.T)
                    G += csum_full[np.ix_(mask, mask)]
                    G[np.diag_indices_from(G)] += self.noise
                    sol = self.p[k] * _solve_regularized(G, Hs[:, k])
                    full = np.zeros(A_dim, dtype=complex)
                    full[mask] = sol
                    v[k, orus, :] = full.reshape(orus.size, N)
        return v


def _unit_coefficients(v_t, h_t, Emat):
    per_oru = np.einsum("kln,iln->kil", np.conj(v_t), h_t)
    return per_oru @ Emat


def reference_uplink_gamma(
    scheme, h, hhat, C, association, genome, p_mw, noise_mw, quantizer_bits="infinite"
):
    """Uplink SINR per UE from the per-realization loop."""
    T, K = h.shape[0], h.shape[1]
    p = np.asarray(p_mw, dtype=float)
    ws = ReferenceWorkspace(SCHEMES[scheme], association, genome, C, p, noise_mw)
    num = np.zeros(K, dtype=complex)
    isq = np.zeros((K, K))
    nrm = np.zeros(K)
    for t in range(T):
        v = ws.combiners(hhat[t])
        g = _unit_coefficients(v, h[t], ws.Emat)
        if quantizer_bits != "infinite":
            g = quantize(g, quantizer_bits)
        s = g.sum(axis=-1)
        num += np.diag(s)
        isq += np.abs(s) ** 2
        nrm += np.einsum("kln->k", np.abs(v) ** 2)
    num /= T
    isq /= T
    nrm /= T
    signal = p * np.abs(num) ** 2
    interference = (isq * p[None, :]).sum(axis=1) - p * isq[np.arange(K), np.arange(K)]
    denom = interference + noise_mw * nrm
    served = association.delta.any(axis=1)
    if np.any(denom[served] <= 0):
        raise AssertionError("nonpositive SINR denominator for a served UE")
    gamma = np.zeros(K)
    gamma[served] = signal[served] / denom[served]
    return gamma


def normalize_precoders(w_prime, association):
    """(w_bar, omega, excluded): raw precoders scaled to unit average energy
    per UE, the largest per-O-RU energy share over each UE's serving set,
    and the UEs whose raw precoder has zero norm."""
    T = w_prime.shape[0]
    slice_energy = np.einsum("tkln->kl", np.abs(w_prime) ** 2) / T
    total = slice_energy.sum(axis=1)
    excluded = total <= 0
    if np.any(excluded):
        warnings.warn(
            f"{int(excluded.sum())} UE(s) have zero-norm precoders and are "
            "excluded from the downlink"
        )
    scale = np.sqrt(np.where(excluded, 1.0, total))
    w_bar = w_prime / scale[None, :, None, None]
    w_bar[:, excluded] = 0.0

    bar_energy = slice_energy / np.where(total <= 0, 1.0, total)[:, None]
    counted = association.delta & ~excluded[:, None]
    omega = np.where(counted, bar_energy, 0.0).max(axis=1)
    return w_bar, omega, excluded


def reference_downlink_gamma(
    scheme, h, hhat, C, association, genome, beta, p_ul_mw, noise_ul_mw, noise_dl_mw,
    p_max_mw, phase_drift_deg=0.0, drift_rng=None,
):
    """Downlink SINR per UE and DL powers from the per-realization loop."""
    T, K, L, N = h.shape
    p_ul = np.asarray(p_ul_mw, dtype=float)
    ws = ReferenceWorkspace(SCHEMES[scheme], association, genome, C, p_ul, noise_ul_mw)
    w_prime = np.empty_like(hhat)
    for t in range(T):
        w_prime[t] = ws.combiners(hhat[t])
    w_bar, omega, excluded = normalize_precoders(w_prime, association)
    p_dl, _ = downlink_power(beta, omega, association.delta & ~excluded[:, None], p_max_mw)
    p_dl = np.where(excluded, 0.0, p_dl)
    h_rx = h
    if phase_drift_deg > 0:
        max_rad = np.deg2rad(phase_drift_deg)
        theta = drift_rng.uniform(-max_rad, max_rad, size=(T, L))
        h_rx = h * np.exp(1j * theta)[:, None, :, None]
    amp = np.sqrt(p_dl)
    num = np.zeros(K, dtype=complex)
    isq = np.zeros((K, K))
    for t in range(T):
        w_t = w_bar[t] * amp[:, None, None]
        g = _unit_coefficients(h_rx[t], w_t, ws.Emat)
        s = g.sum(axis=-1)
        num += np.diag(s)
        isq += np.abs(s) ** 2
    num /= T
    isq /= T
    signal = np.abs(num) ** 2
    interference = np.maximum(isq.sum(axis=1) - signal, 0.0)
    return signal / (interference + noise_dl_mw), p_dl
