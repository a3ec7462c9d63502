"""Kernel probe: the public step function of each scheme, timed alone.

Each scheme steps ``PROBE_STEPS`` times over fixed increments (beta=0.5,
dt=1e-3) on the probe model of size K = 2, 8 and 32: levels linspace(-1, 1, K),
off-diagonal rates U(0.1, 1) from ``default_rng(0)``, uniform initial law.
The telegraph steps exist only for K = 2 and take nu = rates[0, 1]. A probe
fails when its step function raises or its final state is not a finite,
nonnegative distribution; the time per completed step is reported either way.
At K = 32 the Gamma transform leaves floating-point range before the last step.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

PROBE_SIZES = (2, 8, 32)
PROBE_STEPS = 1500
BETA = 0.5
DT = 1e-3
GENERAL_SCHEMES = (
    "zakai-ito",
    "zakai-langevin",
    "wonham-ito",
    "wonham-langevin",
    "log",
    "gamma",
    "bayes-oracle",
)
TELEGRAPH_SCHEMES = ("telegraph-ito", "telegraph-langevin")


def random_model(k: int):
    """Levels linspace(-1, 1, k), off-diagonal rates U(0.1, 1) from seed 0, uniform start."""
    from jumpfilter import ChainModel

    rates = np.random.default_rng(0).uniform(0.1, 1.0, size=(k, k))
    np.fill_diagonal(rates, 0.0)
    return ChainModel(levels=np.linspace(-1.0, 1.0, k), rates=rates, initial_dist=np.full(k, 1.0 / k))


def _stepper(scheme: str, model):
    """(initial state, step(state, dy) -> state, probs(state)) for one scheme."""
    from scipy.linalg import expm

    from jumpfilter import oracle, transition_matrix, wonham, zakai

    if scheme == "zakai-ito":
        return (zakai.init_unnormalized(model),
                lambda s, dy: zakai.zakai_ito_step(s, model, BETA, DT, dy),
                lambda s: s.psi / s.psi.sum())
    if scheme == "zakai-langevin":
        return (zakai.init_unnormalized(model),
                lambda s, dy: zakai.zakai_langevin_step(s, model, BETA, DT, dy, -1),
                lambda s: s.psi / s.psi.sum())
    if scheme == "wonham-ito":
        return (wonham.FilterState(model.initial_dist),
                lambda s, dy: wonham.wonham_step(s, model, BETA, DT, dy),
                lambda s: s.probs)
    if scheme == "wonham-langevin":
        return (wonham.FilterState(model.initial_dist),
                lambda s, dy: wonham.wonham_langevin_step(s, model, BETA, DT, dy, -1),
                lambda s: s.probs)
    if scheme == "log":
        return (zakai.LogState(theta=np.log(model.initial_dist)),
                lambda s, dy: zakai.log_step(s, model, BETA, DT, dy, -1),
                lambda s: np.exp(s.theta) / np.exp(s.theta).sum())
    if scheme == "gamma":
        a_matrix = zakai.drift_matrix(model, BETA, -1)
        forward, backward = expm(a_matrix * DT), expm(-a_matrix * DT)

        def gamma_probs(s):
            psi = s.forward @ s.gamma
            return psi / psi.sum() if np.all(psi > 0) else psi

        return (zakai.to_gamma(zakai.init_unnormalized(model), a_matrix, t=0.0),
                lambda s, dy: zakai.gamma_langevin_step(s, model, BETA, DT, dy, forward, backward),
                gamma_probs)
    if scheme == "bayes-oracle":
        trans = transition_matrix(model, DT)
        return (oracle.DiscreteBayesState(probs=model.initial_dist),
                lambda s, dy: oracle.bayes_forward_step(s, model, DT, dy, BETA, trans=trans),
                lambda s: s.probs)
    nu = float(model.rates[0, 1])
    step = wonham.telegraph_ito_step if scheme == "telegraph-ito" else wonham.telegraph_langevin_step
    return (wonham.TelegraphState(q=0.0),
            lambda s, dy: step(s, nu, BETA, DT, dy),
            lambda s: np.array([(1.0 + s.q) / 2.0, (1.0 - s.q) / 2.0]))


def _probe_one(scheme: str, model, increments: np.ndarray) -> tuple[float, bool]:
    state, step, probs = _stepper(scheme, model)
    done = 0
    failed = False
    start = time.perf_counter()
    try:
        for dy in increments:
            state = step(state, float(dy))
            done += 1
    except (ValueError, ArithmeticError, RuntimeError):
        failed = True
    elapsed = time.perf_counter() - start
    if not failed:
        p = probs(state)
        failed = not (np.all(np.isfinite(p)) and np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9)
    return (1e6 * elapsed / done if done else 0.0), failed


def run_probe() -> tuple[dict, list[str]]:
    """Metrics ``kernel.<scheme>.k<K>.us_per_step`` and the names that failed."""
    metrics: dict[str, tuple[float, str]] = {}
    failures: list[str] = []
    increments = np.random.default_rng(1).standard_normal(PROBE_STEPS) * BETA * np.sqrt(DT)
    cases = [(s, k) for s in GENERAL_SCHEMES for k in PROBE_SIZES]
    cases += [(s, 2) for s in TELEGRAPH_SCHEMES]
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for scheme, k in cases:
            name = f"kernel.{scheme}.k{k}"
            us, failed = _probe_one(scheme, random_model(k), increments)
            metrics[f"{name}.us_per_step"] = (us, "us")
            if failed:
                failures.append(name)
    metrics["kernel.failed"] = (len(failures), "count")
    return metrics, failures
