"""SINR reports over given whole-batch arrays, for tests.

The program's reports read only link moments
(``transceiver.uplink_sinr``, ``transceiver.downlink_report``). These two
functions take a scheme's (T, K, L, N) channels ``h`` and estimates
``hhat`` and its error covariances ``C`` instead: each builds the
scheme's ``CombinerWorkspace``, runs one moment pass over the batch
(``transceiver._link_moments``) and rates the link from its moments.
Given ``moments``, a call reads neither ``h`` nor ``hhat``.
"""

from cfmimo.channel import phase_drift
from cfmimo.transceiver import SCHEMES, CombinerWorkspace, _link_moments, downlink_report
from cfmimo.transceiver import uplink_sinr as uplink_report


def uplink_sinr(
    scheme, h, hhat, C, association, genome, p_mw, noise_mw,
    quantizer_bits="infinite", moments=None,
):
    """The uplink report, its per-unit coefficients quantized to
    ``quantizer_bits``."""
    if moments is None:
        ws = CombinerWorkspace(SCHEMES[scheme], association, genome, C, p_mw, noise_mw)
        moments = _link_moments(ws, hhat, h, {"ul": quantizer_bits})["ul"]
    return uplink_report(scheme, moments, association, p_mw, noise_mw)


def downlink_sinr(
    scheme, h, hhat, C, association, genome, beta, p_ul_mw, noise_ul_mw, noise_dl_mw,
    p_max_mw, phase_drift_deg=0.0, drift_rng=None, moments=None,
):
    """The downlink result, its precoders made at the uplink powers and
    noise; with ``phase_drift_deg`` > 0 the channels are rotated by per-O-RU
    drift phasors drawn from ``drift_rng``."""
    if moments is None:
        rot = None
        if phase_drift_deg > 0:
            L = association.delta.shape[1]
            rot = phase_drift(h.shape[0], L, phase_drift_deg, drift_rng)
        ws = CombinerWorkspace(SCHEMES[scheme], association, genome, C, p_ul_mw, noise_ul_mw)
        moments = _link_moments(ws, hhat, h, {"dl": rot})["dl"]
    return downlink_report(scheme, moments, association, beta, noise_dl_mw, p_max_mw)
