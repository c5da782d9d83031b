"""Phases of one curve of taps written out from its walks, for the tests
to check the package's one builder of them, the block loop of
`experiments.estimate_curves`, with arithmetic of their own."""

from oscavg import wiener_ensemble


def tap_phases(beta, taps, dt, n, master_seed, n_paths, first_index=0):
    """sum_j a_j theta^(s_j)_{t - d_j} over the taps (s_j, a_j, d_j) of one
    curve, shape (n_paths, n), for paths first_index onwards. Source s's
    walks come from wiener_ensemble on stream tag s, n + L samples long for
    its largest lag L, with t = 0 at sample L, so a tap of lag l = d / dt
    reads samples L - l to L - l + n. The weighted slices are summed in tap
    order, starting from 0.0."""
    lags = [round(d / dt) for _, _, d in taps]
    longest = {}
    for (s, _, _), lag in zip(taps, lags):
        longest[s] = max(longest.get(s, 0), lag)
    walks = {s: wiener_ensemble(beta, 0.0, dt, n + L, master_seed, n_paths,
                                first_index=first_index, stream=s)
             for s, L in longest.items()}
    phase = 0.0
    for (s, a, _), lag in zip(taps, lags):
        start = longest[s] - lag
        phase = phase + a * walks[s][:, start:start + n]
    return phase
