"""Time-domain Langevin model of the trapped sphere.

One-dimensional center-of-mass motion with ideal cold damping:

    m x'' = -m w0^2 x - m (gamma + g_fb) x' + F_th(t)

where F_th is white Gaussian thermal forcing tied to the physical damping
gamma only (the feedback loop is noiseless).  The integrator is a BAOAB
splitting: half kick, half drift, exact Ornstein-Uhlenbeck velocity update,
half drift, half kick.  Because the system is linear the whole trajectory
is evaluated with one state-space filter pass, which is fast and
bit-reproducible for a given (seed, config).

PSD convention: ``estimate_psd`` returns a one-sided density, so a
thermally limited oscillator shows a Lorentzian with plateau force PSD
4 kB T m gamma, i.e. twice the square of ``sensor.thermal_force_asd``.

The discretisation lives in ``_LinearTrap`` alone, built once per call of
``simulate``, ``impulse_response_template`` or ``search_impulses``: the template
is the impulse response of the filter that makes the record.

Impulse search: ``search_impulses`` simulates one run.  Its thermal noise is
drawn once, at full rate; the matched-filter threshold comes from that noise
record and the impulse amplitudes from the same record with the impulses
added, both at full rate.  ``record_decimation`` thins only the trajectory
that is returned for writing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
# scipy.signal and scipy.optimize are imported inside the functions that use
# them: at module level they are most of the import time of every command.

from .quantities import Dimension, DomainError, K_B, Quantity
from .sensor import Sphere, TrapState
from .writer import write_csv


class IntegrationError(RuntimeError):
    """Integrator produced an unstable or runaway trajectory."""


class ThresholdEstimateError(RuntimeError):
    """Matched-filter noise distribution is not converged."""


@dataclass(frozen=True)
class SimulationConfig:
    time_step: float                      # s
    duration: float                      # s
    rng_seed: int
    bath_temperature: float               # K
    feedback_gain: float = 0.0            # cold-damping rate g_fb, 1/s
    record_decimation: int = 1
    allow_short_run: bool = False

    def __post_init__(self):
        if self.time_step <= 0.0 or self.duration <= 0.0:
            raise DomainError("time step and duration must be positive")
        if self.bath_temperature < 0.0:
            raise DomainError("bath temperature must be >= 0")
        if self.feedback_gain < 0.0:
            raise DomainError("feedback gain must be >= 0")
        if self.record_decimation < 1 or self.record_decimation != int(self.record_decimation):
            raise DomainError("record decimation must be an integer >= 1")


@dataclass(frozen=True)
class TimeSeries:
    sample_interval: float
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise DomainError("time series contains non-finite samples")
        object.__setattr__(self, "samples", arr)

    @property
    def times(self) -> np.ndarray:
        return self.sample_interval * np.arange(self.samples.size)

    def to_csv(self, path, provenance: Optional[dict] = None):
        """Two-column CSV (time_s, displacement_m) with '#' provenance header."""
        write_csv(path, (provenance or {}).items(), ("time_s", "displacement_m"),
                  (self.times, self.samples))


@dataclass(frozen=True)
class ImpulseEvent:
    time: float                 # s
    momentum_transfer: float    # q, kg m/s, > 0
    direction: int = 1          # +1 / -1

    def __post_init__(self):
        if self.momentum_transfer <= 0.0:
            raise DomainError("impulse momentum transfer must be positive")
        if self.direction not in (-1, 1):
            raise DomainError("impulse direction must be +1 or -1")


def total_damping(trap: TrapState, config: SimulationConfig) -> float:
    """Total velocity damping gamma + g_fb, 1/s.

    Cold damping adds up from both places it can be set: the trap's own
    ``feedback_gain`` and the simulation's.
    """
    return trap.effective_damping + config.feedback_gain


class _LinearTrap:
    """The BAOAB discretisation of one trap, checked and built once.

    Two displacement filters of the one-step map on (x, v): noise enters as a
    velocity kick at the O substep, an impulse as one at the start of a step.
    """

    def __init__(self, sphere: Sphere, trap: TrapState, config: SimulationConfig):
        from scipy import signal

        f0 = trap.resonant_frequency
        if config.time_step >= 1.0 / (20.0 * f0):
            raise DomainError(f"time step {config.time_step} s too coarse; "
                              f"need < 1/(20 f0) = {1.0/(20*f0)} s")
        self.config = config
        self.mass = mass = sphere.mass
        self.gamma_total = gamma_total = total_damping(trap, config)
        self.dt = h = config.time_step
        self.n = int(round(config.duration / h))
        # Exact OU kick: stationary velocity variance kB T_eff / m with
        # T_eff = T gamma / (gamma + g_fb); fluctuations enter via gamma only.
        self._kick_std = math.sqrt(
            K_B * config.bath_temperature * trap.damping_rate / (mass * gamma_total)
            * (1.0 - math.exp(-2.0 * gamma_total * h)))

        kick = np.array([[1.0, 0.0], [-(trap.omega0**2) * h / 2.0, 1.0]])
        drift = np.array([[1.0, h / 2.0], [0.0, 1.0]])
        decay = np.array([[1.0, 0.0], [0.0, math.exp(-gamma_total * h)]])
        m_step = kick @ drift @ decay @ drift @ kick
        if max(abs(np.linalg.eigvals(m_step))) > 1.0 + 1e-12:
            raise IntegrationError("unstable step: one-step map has spectral radius > 1")

        def displacement_filter(column):
            num, den = signal.ss2tf(m_step, column[:, None], [[1.0, 0.0]], [[0.0]])
            return partial(signal.lfilter, num[0], den)

        unit_velocity = np.array([0.0, 1.0])
        self._noise_filter = displacement_filter(kick @ drift @ unit_velocity)
        self._impulse_filter = displacement_filter(m_step @ unit_velocity)

    def noise(self) -> np.ndarray:
        """Full-rate thermal displacement from x = v = 0; zeros at zero temperature."""
        if self.config.bath_temperature == 0.0:
            return np.zeros(self.n)
        rng = np.random.default_rng(np.random.SeedSequence(self.config.rng_seed))
        x = self._noise_filter(rng.standard_normal(self.n) * self._kick_std)
        _check_energy_growth(x, self.gamma_total, self.dt)
        return x

    def response(self, kicks: np.ndarray) -> np.ndarray:
        """Displacement from rest driven by velocity kicks, one per step (m/s)."""
        return self._impulse_filter(kicks)

    def kick_steps(self, injected: Sequence[ImpulseEvent]) -> list:
        """The step nearest each impulse's time; outside the simulated span is an error."""
        steps = [int(round(ev.time / self.dt)) for ev in injected]
        for ev, idx in zip(injected, steps):
            if not (0 <= idx < self.n):
                raise DomainError(f"impulse at t = {ev.time} s outside the simulated span")
        return steps

    def kick_train(self, injected: Sequence[ImpulseEvent]) -> np.ndarray:
        """Full-rate velocity kicks: each impulse adds q/m at its nearest step."""
        kicks = np.zeros(self.n)
        for ev, idx in zip(injected, self.kick_steps(injected)):
            kicks[idx] += ev.direction * ev.momentum_transfer / self.mass
        return kicks

    def template(self) -> np.ndarray:
        """Response to a unit (1 kg m/s) impulse at step 0, over 10/gamma_total."""
        kicks = np.zeros(int(round(10.0 / self.gamma_total / self.dt)))
        kicks[0] = 1.0 / self.mass
        return self.response(kicks)


def simulate(
    sphere: Sphere,
    trap: TrapState,
    config: SimulationConfig,
    injected: Sequence[ImpulseEvent] = (),
) -> TimeSeries:
    """Integrate the damped, thermally driven oscillator from x = v = 0.

    Deterministic for a given (rng_seed, config).  Injected impulses add
    q/m to the velocity at the nearest time step.
    """
    model = _LinearTrap(sphere, trap, config)
    if config.duration < 100.0 / model.gamma_total and not config.allow_short_run:
        raise DomainError(
            "duration shorter than 100 relaxation times; set allow_short_run to override"
        )
    x = model.noise()
    if injected:
        x = x + model.response(model.kick_train(injected))
    return _record(x, config)


def _record(x: np.ndarray, config: SimulationConfig) -> TimeSeries:
    """The recorded series: every ``record_decimation``-th full-rate sample.

    At a decimation above one the record is a compact copy, so it does not
    keep the full-rate array alive; at one it is the array itself.
    """
    k = config.record_decimation
    return TimeSeries(sample_interval=config.time_step * k,
                      samples=np.ascontiguousarray(x[::k]))


def _check_energy_growth(x: np.ndarray, gamma_total: float, dt: float):
    """Flag runaway trajectories: late-time RMS > 10x post-transient RMS."""
    relax = int(math.ceil(1.0 / (gamma_total * dt)))
    if x.size < 10 * relax:
        return
    early = x[2 * relax: 5 * relax]
    late = x[-3 * relax:]
    rms_early = float(np.sqrt(np.mean(early**2)))
    rms_late = float(np.sqrt(np.mean(late**2)))
    if rms_early > 0.0 and rms_late > 10.0 * rms_early:
        raise IntegrationError(
            f"energy growth detected: late RMS {rms_late:.3e} m vs early {rms_early:.3e} m"
        )


@dataclass(frozen=True)
class PsdEstimate:
    frequency: np.ndarray     # Hz
    psd: np.ndarray           # one-sided, m^2/Hz for displacement input
    segment_length: int
    n_segments: int

    @property
    def df(self) -> float:
        return float(self.frequency[1] - self.frequency[0])


def estimate_psd(series: TimeSeries, segment_length: int) -> PsdEstimate:
    """Averaged-periodogram (Welch) one-sided PSD, Hann window, 50 % overlap.

    Scaling uses the mean-square window correction, so sum(PSD) * df equals
    the variance of the window-corrected series.
    """
    x = series.samples
    m = int(segment_length)
    if m < 8:
        raise DomainError("segment length too short")
    if x.size < m:
        raise DomainError(f"series of {x.size} samples shorter than one segment ({m})")
    fs = 1.0 / series.sample_interval
    hop = int(round(m * 0.5))
    window = np.hanning(m)
    u = float(np.mean(window**2))

    n_segments = 0
    acc = np.zeros(m // 2 + 1)
    for start in range(0, x.size - m + 1, hop):
        seg = x[start: start + m] * window
        spec = np.fft.rfft(seg)
        acc += np.abs(spec) ** 2
        n_segments += 1
    psd = acc / (n_segments * fs * m * u)
    psd[1:] *= 2.0
    if m % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(m, d=series.sample_interval)
    return PsdEstimate(frequency=freqs, psd=psd, segment_length=m, n_segments=n_segments)


@dataclass(frozen=True)
class LorentzianFit:
    f0: float            # Hz
    gamma: float         # effective linewidth, 1/s
    force_psd: float     # one-sided white force PSD driving the oscillator, N^2/Hz

    @property
    def force_asd(self) -> float:
        """Symmetric-convention force ASD, comparable to sensor.thermal_force_asd."""
        return math.sqrt(self.force_psd / 2.0)


def fit_lorentzian(psd_est: PsdEstimate, mass: float,
                   f_range: Optional[tuple] = None) -> LorentzianFit:
    """Fit S_x(f) = S_F / (m^2 ((w0^2-w^2)^2 + w^2 g^2)) to a displacement PSD."""
    from scipy import optimize

    f = psd_est.frequency
    s = psd_est.psd
    keep = f > 0
    if f_range is not None:
        keep &= (f >= f_range[0]) & (f <= f_range[1])
    f = f[keep]
    s = s[keep]
    if f.size < 16:
        raise DomainError("too few PSD points in the fit range")

    f0_guess = float(f[np.argmax(s)])
    # Half-power width as the linewidth seed.
    peak = float(np.max(s))
    above = f[s > peak / 2.0]
    gamma_guess = max(2.0 * math.pi * (above[-1] - above[0]), 2.0 * math.pi * psd_est.df)
    sf_guess = peak * mass**2 * (2.0 * math.pi * f0_guess) ** 2 * gamma_guess**2

    def log_model(freq, log_sf, f_res, gam):
        w = 2.0 * math.pi * freq
        w0 = 2.0 * math.pi * f_res
        return log_sf - np.log((w0**2 - w**2) ** 2 + (w * gam) ** 2) - 2.0 * math.log(mass)

    popt, _ = optimize.curve_fit(
        log_model, f, np.log(s),
        p0=[math.log(sf_guess), f0_guess, gamma_guess],
        maxfev=20000,
    )
    return LorentzianFit(f0=float(popt[1]), gamma=abs(float(popt[2])),
                         force_psd=float(math.exp(popt[0])))


def impulse_response_template(
    sphere: Sphere, trap: TrapState, config: SimulationConfig
) -> np.ndarray:
    """Displacement response to a unit (1 kg m/s) impulse, truncated at 10/gamma_eff.

    Filtered by the same discretised trap as ``simulate``'s impulse response,
    so the template matches the discrete closed-loop dynamics exactly.
    """
    return _LinearTrap(sphere, trap, config).template()


def matched_filter_outputs(series: TimeSeries, template: np.ndarray) -> np.ndarray:
    """Correlate a trajectory against the impulse template.

    Output is calibrated in momentum units: a clean impulse q produces a
    peak of q at the sample where it occurred.
    """
    from scipy import signal

    norm = float(np.dot(template, template))
    if norm <= 0.0:
        raise DomainError("degenerate matched-filter template")
    full = signal.fftconvolve(series.samples, template[::-1], mode="full")
    return full[template.size - 1:] / norm


@dataclass(frozen=True)
class ImpulseSearch:
    """What ``search_impulses`` found in one simulated run."""

    series: TimeSeries       # the recorded trajectory, impulses included
    threshold: Quantity      # momentum whose filter response clears the false-alarm rate
    amplitudes: tuple        # filter amplitude of each injected impulse, kg m/s


def search_impulses(
    sphere: Sphere,
    trap: TrapState,
    config: SimulationConfig,
    injected: Sequence[ImpulseEvent],
    false_alarm_rate: float,
) -> ImpulseSearch:
    """Simulate one run and pick the injected impulses out of its thermal noise.

    The thermal motion is simulated once, at full rate.  The threshold is the
    empirical (1 - FAR * dt) quantile of |filter output| on that noise alone;
    no Gaussian assumption.  It requires at least 1e4 filter correlation times
    (~1/gamma_eff) of simulated noise.  The impulses' response is then added,
    and each amplitude is the largest |filter output| at the five full-rate
    lags around its impulse, whatever ``record_decimation`` is.  Only the
    returned series is decimated.  An impulse whose lags reach into the last
    template length of the record, which the threshold drops, is a
    ``DomainError``, raised before anything is simulated.
    """
    if false_alarm_rate <= 0.0:
        raise DomainError("false alarm rate must be positive")
    gamma_total = total_damping(trap, config)
    n_correlation_times = config.duration * gamma_total
    if n_correlation_times < 1.0e4:
        raise ThresholdEstimateError(
            f"noise distribution not converged: {n_correlation_times:.0f} filter "
            "correlation times simulated, need >= 1e4"
        )

    model = _LinearTrap(sphere, trap, config)
    template = model.template()
    steps = model.kick_steps(injected)
    # The threshold keeps the lags whose correlation has the whole template
    # inside the record; an amplitude is read only from lags it keeps.
    last = model.n - template.size - 3
    for ev, idx in zip(injected, steps):
        if idx > last:
            raise DomainError(
                f"impulse at t = {ev.time} s is inside the last filter template length "
                f"of the record; the last usable time is {last * model.dt} s")

    noise = TimeSeries(sample_interval=model.dt, samples=model.noise())
    threshold = _noise_threshold(noise, template, false_alarm_rate)

    x = noise.samples
    if injected:
        x = x + model.response(model.kick_train(injected))
    norm = float(np.dot(template, template))
    amplitudes = tuple(_peak_correlation(x, template, idx) / norm for idx in steps)
    return ImpulseSearch(series=_record(x, config),
                         threshold=Quantity(threshold, Dimension.MOMENTUM),
                         amplitudes=amplitudes)


def _noise_threshold(noise: TimeSeries, template: np.ndarray, false_alarm_rate: float) -> float:
    """The (1 - FAR * dt) quantile of |filter output| on a noise-only record."""
    outputs = matched_filter_outputs(noise, template)
    # Drop trailing lags where the template overruns the end of the series.
    if outputs.size <= template.size:
        raise ThresholdEstimateError("series shorter than the filter template")
    outputs = outputs[: -template.size]

    p_exceed = false_alarm_rate * noise.sample_interval
    if p_exceed >= 1.0:
        raise DomainError("false alarm rate above one per sample")
    tail_count = outputs.size * p_exceed
    if 0.0 < p_exceed and tail_count < 10.0:
        raise ThresholdEstimateError(
            f"only {tail_count:.1f} expected tail samples at this false-alarm rate; "
            "simulate longer or relax the rate"
        )
    return float(np.quantile(np.abs(outputs), 1.0 - p_exceed))


def _peak_correlation(x: np.ndarray, template: np.ndarray, idx: int) -> float:
    """Largest |sum_k x[j+k] template[k]| over the lags j = idx-2 .. idx+2.

    The same sums as ``matched_filter_outputs`` before its normalization,
    taken directly at five lags instead of by a full-length FFT.  The caller
    keeps idx + 2 + template.size within the record.
    """
    return max(abs(float(np.dot(x[j: j + template.size], template)))
               for j in range(max(0, idx - 2), idx + 3))
