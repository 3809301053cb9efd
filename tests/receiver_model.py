"""The receiver's detection law, written from the model's statement rather
than from the session code, as the reference that tests compare it with."""

import math


def closed_form_probabilities(cfg) -> dict:
    """Per-pulse probabilities of a detection, a sifted bit and a wrong sifted
    bit of a ``SessionConfig`` on the identity channel.

    Each arm clicks with pc_i = 1 - exp(-mu*eta*T*p_i)(1 - p_dark - p_bg), a
    matched basis splits the light as p = (1 - e, e) and a conjugate one as
    (1/2, 1/2); a pulse is detected when either arm clicks, Bob picks
    Alice's basis with probability 1/2, and a double click is squashed to a
    fair coin.
    """
    mu_eta_t = cfg.mean_photon_number * cfg.detector_efficiency * cfg.channel_transmission
    no_noise = 1.0 - cfg.dark_count_prob - cfg.background_prob
    e = cfg.intrinsic_error

    def click(p):
        return 1.0 - math.exp(-mu_eta_t * p) * no_noise

    right, wrong, half = click(1.0 - e), click(e), click(0.5)
    matched = 1.0 - (1.0 - right) * (1.0 - wrong)
    conjugate = 1.0 - (1.0 - half) ** 2
    return {
        "detected_pulses": (matched + conjugate) / 2,
        "sifted_bits": matched / 2,
        "wrong_bits": (wrong * (1.0 - right) + right * wrong / 2) / 2,
    }
