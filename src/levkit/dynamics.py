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
``simulate`` or ``search_impulses``: the matched-filter template is the
impulse response of the filter that makes the record.  The model runs in
blocks of ``_BLOCK`` samples with its filter state carried between them, so
a whole-record array exists only where a caller keeps one.  The noise is
that of one whole-record pass bit for bit; so is the impulses' response,
except that the response is run only on a block that holds a kick or starts
from a nonzero state, and its state is set to zero at the end of a block
once every component is subnormal (below ``np.finfo(float).tiny``).  A
whole-record pass would instead carry a subnormal limit cycle to the end of
the record.  At zero temperature that tail is exactly +0.0 from the next
block on; above zero it changes no sample whose |noise| exceeds 2^-969 m.

Impulse search: ``search_impulses`` simulates one run in a single pass over
those blocks.  Its thermal noise is drawn once, at full rate; an
overlap-save matched filter turns each noise block into filter outputs, of
which only the largest are kept for the threshold, and the impulse
amplitudes are read from the same record with the impulses added, both at
full rate.  ``record_decimation`` thins only the trajectory that is returned
for writing.  A search holds O(template + N p + N / record_decimation)
floats for N samples at false-alarm probability p per sample (plus one
template length per injected impulse), not O(N).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# scipy.optimize is imported inside the function that uses it: at module
# level it is most of the import time of every command.  scipy.signal is not
# imported at all (see ``_linear_filter``).

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
        if self.rng_seed < 0:
            raise DomainError(f"rng seed must be >= 0, got {self.rng_seed!r}")
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

    def to_csv(self, path, provenance: Optional[dict] = None):
        """Two-column CSV (time_s, displacement_m) with '#' provenance header.

        Sample i is at time i * sample_interval; the writer gets those times
        a chunk at a time, so no whole-record time array is made.
        """
        write_csv(path, (provenance or {}).items(), ("time_s", "displacement_m"),
                  (_SampleTimes(self.sample_interval, self.samples.size), self.samples))


class _SampleTimes:
    """The times ``interval * i`` of ``n`` samples, made per slice: element for
    element the values of ``interval * np.arange(n)``, held only as asked for."""

    def __init__(self, interval: float, n: int):
        self.interval, self.n = interval, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.interval * np.arange(*rows.indices(self.n))


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


# Samples per block of a streamed run; also the least FFT length of the
# search's overlap-save filter, which is raised to the next power of two
# >= 8 template lengths when the template is longer.
_BLOCK = 2**17


@functools.cache
def _linear_filter():
    """scipy's compiled direct-form II transposed IIR kernel, ``_linear_filter``.

    ``_linear_filter(b, a, x, -1[, zi])`` is the call ``scipy.signal.lfilter``
    makes for a denominator of more than one coefficient, so its samples are
    lfilter's bit for bit.  The extension is loaded from its file in the
    ``scipy.signal`` package directory, which imports only the top-level
    ``scipy`` package: ``import scipy.signal`` would load some 500 scipy
    modules (``scipy.stats`` and ``scipy.linalg`` among them) for this one
    function, 1.0-1.2 s and 76 MiB of resident memory with scipy 1.17 on a
    2-core x86-64 VM, more than the filtering of a 1e7-sample search.  The
    module is not registered in ``sys.modules``.
    """
    package = importlib.util.find_spec("scipy.signal").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec("_sigtools", package)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


class _LinearTrap:
    """The BAOAB discretisation of one trap, checked and built once.

    Two displacement filters of the one-step map on (x, v): noise enters as a
    velocity kick at the O substep, an impulse as one at the start of a step.
    Each is a transfer function (num, den) of three coefficients, built with
    ``scipy.signal.ss2tf``'s own numpy arithmetic, and is run by
    ``_linear_filter``, the kernel of ``scipy.signal.lfilter``: the samples
    are lfilter's, without the import of ``scipy.signal``.
    """

    def __init__(self, sphere: Sphere, trap: TrapState, config: SimulationConfig):
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

        unit_velocity = np.array([0.0, 1.0])
        self._noise_filter = _displacement_filter(m_step, kick @ drift @ unit_velocity)
        self._impulse_filter = _displacement_filter(m_step, m_step @ unit_velocity)

    def blocks(self, injected: Sequence[ImpulseEvent] = ()):
        """The run from x = v = 0 in consecutive full-rate blocks of ``_BLOCK`` steps.

        Yields ``(start, noise, x)``: the block's first step, its thermal
        displacement (zeros at zero temperature) and its displacement with the
        impulses' response added, each impulse adding q/m to the velocity at
        its nearest step.  Both filters carry their state from block to block,
        so the samples are those of one whole-record pass, bit for bit, with
        one exception.  The impulse filter runs only on a block that holds a
        kick or starts from a nonzero state, and once its state is subnormal
        in every component at a block's end it is set to zero; a skipped block
        yields ``x`` as ``noise`` itself.  So where one pass would leave a
        subnormal limit cycle, a zero-temperature run is exactly +0.0 from the
        next block on; with noise, only a sample with |noise| <= 2^-969 m
        could differ.  After the last block the noise is checked for energy
        growth.
        """
        linear_filter = _linear_filter()
        steps = self.kick_steps(injected)
        rng = None
        if self.config.bath_temperature > 0.0:
            rng = np.random.default_rng(np.random.SeedSequence(self.config.rng_seed))
        # The energy-growth check reads 2..5 relaxation times and the last 3.
        relax = int(math.ceil(1.0 / (self.gamma_total * self.dt)))
        windows = ()
        if rng is not None and self.n >= 10 * relax:
            windows = (_Span(2 * relax, 5 * relax), _Span(self.n - 3 * relax, self.n))
        noise_state = np.zeros(self._noise_filter[1].size - 1)
        impulse_state = np.zeros(self._impulse_filter[1].size - 1)
        for start in range(0, self.n, _BLOCK):
            size = min(_BLOCK, self.n - start)
            if rng is None:
                noise = np.zeros(size)
            else:
                noise, noise_state = linear_filter(
                    *self._noise_filter, rng.standard_normal(size) * self._kick_std, -1,
                    noise_state)
            for window in windows:
                window.take(start, noise)
            x = noise
            hits = [(idx - start, ev) for ev, idx in zip(injected, steps)
                    if start <= idx < start + size]
            if hits or impulse_state.any():
                kicks = np.zeros(size)
                for at, ev in hits:
                    kicks[at] += ev.direction * ev.momentum_transfer / self.mass
                response, impulse_state = linear_filter(*self._impulse_filter, kicks, -1,
                                                        impulse_state)
                # A decayed response never reaches zero: it settles into a
                # limit cycle of subnormal doubles, which the kernel runs many
                # times slower than normal ones.  End it at the block's end.
                if np.max(np.abs(impulse_state)) < np.finfo(float).tiny:
                    impulse_state[:] = 0.0
                x = noise + response
            yield start, noise, x
        if windows:
            _check_energy_growth(*(window.values for window in windows))

    def kick_steps(self, injected: Sequence[ImpulseEvent]) -> list:
        """The step nearest each impulse's time; outside the simulated span is an error."""
        steps = [int(round(ev.time / self.dt)) for ev in injected]
        for ev, idx in zip(injected, steps):
            if not (0 <= idx < self.n):
                raise DomainError(f"impulse at t = {ev.time} s outside the simulated span")
        return steps

    def template(self) -> np.ndarray:
        """Response to a unit (1 kg m/s) impulse at step 0, over 10/gamma_total."""
        length = 10.0 / self.gamma_total
        kicks = np.zeros(int(round(length / self.dt)))
        if kicks.size == 0:
            raise DomainError(f"matched-filter template of 10/gamma_total = {length} s "
                              f"is shorter than half a time step ({self.dt} s)")
        kicks[0] = 1.0 / self.mass
        return _linear_filter()(*self._impulse_filter, kicks, -1)


def _displacement_filter(m_step: np.ndarray, column: np.ndarray) -> tuple:
    """(num, den) from a velocity kick ``column`` to the displacement, under the
    one-step map ``m_step``: ``scipy.signal.ss2tf(m_step, column[:, None],
    [[1.0, 0.0]], [[0.0]])`` with its own arithmetic, so bit for bit its
    ``(num[0], den)``.  (Its ``+ (D - 1) * den`` is ``- den`` exactly at D = 0.)"""
    den = np.poly(m_step)
    return np.poly(m_step - np.dot(column[:, None], [[1.0, 0.0]])) - den, den


class _Span:
    """Every ``step``-th sample of the steps [start, stop) of a run streamed in
    blocks, copied into one compact array as the blocks pass."""

    def __init__(self, start: int, stop: int, step: int = 1):
        self.start, self.stop, self.step = start, stop, step
        self.values = np.empty(len(range(start, stop, step)))

    def take(self, first: int, block: np.ndarray):
        """Copy what ``block``, whose first sample is step ``first``, holds of the span."""
        lo = max(self.start, first)
        lo += (self.start - lo) % self.step
        hi = min(self.stop, first + block.size)
        if lo < hi:
            chunk = block[lo - first: hi - first: self.step]
            at = (lo - self.start) // self.step
            self.values[at: at + chunk.size] = chunk


def simulate(
    sphere: Sphere,
    trap: TrapState,
    config: SimulationConfig,
    injected: Sequence[ImpulseEvent] = (),
) -> TimeSeries:
    """Integrate the damped, thermally driven oscillator from x = v = 0.

    Deterministic for a given (rng_seed, config).  Injected impulses add
    q/m to the velocity at the nearest time step.  Only the recorded
    (decimated) series is held in memory.
    """
    model = _LinearTrap(sphere, trap, config)
    if config.duration < 100.0 / model.gamma_total and not config.allow_short_run:
        raise DomainError(
            "duration shorter than 100 relaxation times; set allow_short_run to override"
        )
    record = _Span(0, model.n, config.record_decimation)
    for start, _, x in model.blocks(injected):
        record.take(start, x)
    return _series(record, config)


def _series(record: _Span, config: SimulationConfig) -> TimeSeries:
    """The recorded series: every ``record_decimation``-th full-rate sample."""
    return TimeSeries(sample_interval=config.time_step * config.record_decimation,
                      samples=record.values)


def _check_energy_growth(early: np.ndarray, late: np.ndarray):
    """Flag runaway trajectories: late-time RMS > 10x post-transient RMS."""
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
    return PsdEstimate(frequency=freqs, psd=psd, n_segments=n_segments)


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

    The thermal motion is simulated once, at full rate, in one pass over the
    model's blocks.  The threshold is the empirical (1 - FAR * dt) quantile of
    |filter output| on that noise alone; no Gaussian assumption.  It requires
    at least 1e4 filter correlation times (~1/gamma_eff) of simulated noise.
    The impulses' response is added to the same blocks, and each amplitude is
    the largest |filter output| at the five full-rate lags around its
    impulse, whatever ``record_decimation`` is.  Only the returned series is
    decimated.  An impulse whose lags reach into the last template length of
    the record, which the threshold drops, is a ``DomainError``; it and every
    other check that depends only on the record length, the template and the
    false-alarm rate are raised before anything is simulated.

    Memory is O(template + N p + N / record_decimation) floats for N samples
    and false-alarm probability p = FAR * dt per sample, plus one template
    length per injected impulse: never the whole full-rate record.
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
    noise_threshold = _NoiseThreshold(template, model.n, false_alarm_rate * model.dt)

    record = _Span(0, model.n, config.record_decimation)
    # Each amplitude reads the five lags idx-2 .. idx+2, a template length each.
    reads = [_Span(max(0, idx - 2), idx + 2 + template.size) for idx in steps]
    for start, noise, x in model.blocks(injected):
        noise_threshold.take(noise)
        for span in (record, *reads):
            span.take(start, x)
    amplitudes = tuple(
        _peak_correlation(read.values, template, idx - read.start) / noise_threshold.norm
        for read, idx in zip(reads, steps))
    return ImpulseSearch(series=_series(record, config),
                         threshold=Quantity(noise_threshold.threshold(), Dimension.MOMENTUM),
                         amplitudes=amplitudes)


class _NoiseThreshold:
    """The (1 - p) quantile of |matched-filter output| on a noise record fed in blocks.

    The filter output at lag j is sum_k x[j+k] template[k] / |template|^2,
    calibrated so that a clean impulse q reads q.  It is computed by
    overlap-save (Oppenheim & Schafer, Discrete-Time Signal Processing,
    sec. 8.7): segments of ``size`` samples, each overlapping the previous
    one by M - 1 for a template of M samples, give size - M + 1 lags apiece
    from one FFT product with the template's cached spectrum.  The last M
    lags, where the template overruns the record, are dropped.  Of the kept
    outputs at most 2 (ceil(lags * p) + 2) plus one hop are held, always
    including the ceil(lags * p) + 2 largest, which is enough for
    ``_top_quantile`` to give ``np.quantile`` of all of them exactly.
    """

    def __init__(self, template: np.ndarray, n: int, p_exceed: float):
        self.norm = float(np.dot(template, template))
        if self.norm <= 0.0:
            raise DomainError("degenerate matched-filter template")
        self.lags = n - template.size
        if self.lags <= 0:
            raise ThresholdEstimateError("series shorter than the filter template")
        if p_exceed >= 1.0:
            raise DomainError("false alarm rate above one per sample")
        tail_count = self.lags * p_exceed
        if 0.0 < p_exceed and tail_count < 10.0:
            raise ThresholdEstimateError(
                f"only {tail_count:.1f} expected tail samples at this false-alarm rate; "
                "simulate longer or relax the rate"
            )
        self.quantile = 1.0 - p_exceed
        self.keep = math.ceil(tail_count) + 2
        size = max(_BLOCK, 1 << (8 * template.size - 1).bit_length())
        self.spectrum = np.conj(np.fft.rfft(template, size))
        self.overlap = template.size - 1
        self.segment = np.empty(size)
        self.filled = 0          # samples of the segment held so far
        self.first_lag = 0       # the lag of the segment's first sample
        # |outputs|, unnormalized: the largest so far, then the newer ones.
        # Cut back to the largest ``keep`` only when a hop would overflow, so
        # each partition is paid for by at least ``keep`` appended values.
        self.top = np.empty(2 * self.keep + size - self.overlap)
        self.held = 0

    def take(self, block: np.ndarray):
        """Filter the next samples of the record."""
        while block.size:
            count = min(block.size, self.segment.size - self.filled)
            self.segment[self.filled: self.filled + count] = block[:count]
            self.filled += count
            block = block[count:]
            if self.filled == self.segment.size:
                self._correlate()

    def _correlate(self):
        """Keep the largest outputs of the segment's lags, then slide it one hop on."""
        size = self.segment.size
        hop = size - self.overlap
        count = min(hop, self.lags - self.first_lag)
        if count > 0:
            out = np.fft.irfft(np.fft.rfft(self.segment) * self.spectrum, size)[:count]
            if self.held + count > self.top.size:
                cut = self.held - self.keep
                self.top[:self.keep] = np.partition(self.top[:self.held], cut)[cut:]
                self.held = self.keep
            np.abs(out, out=self.top[self.held: self.held + count])
            self.held += count
        self.segment[:self.overlap] = self.segment[hop:]
        self.filled = self.overlap
        self.first_lag += hop

    def threshold(self) -> float:
        """The quantile, once the whole record has been taken, kg m/s."""
        if self.first_lag < self.lags:
            # A partial last segment: its kept lags read only samples it holds,
            # but the FFT reads the whole segment, so the rest must be defined.
            self.segment[self.filled:] = 0.0
            self._correlate()
        return _top_quantile(self.top[:self.held] / self.norm, self.lags, self.quantile)


def _top_quantile(top: np.ndarray, n: int, q: float) -> float:
    """``np.quantile(a, q)`` of an array ``a`` of ``n`` values, from its largest.

    ``top`` holds the largest values of ``a`` (any order), enough of them to
    include both order statistics that the linear rule interpolates.  The
    arithmetic is numpy's own: virtual index (n - 1) q, and the two-sided
    lerp of numpy's private ``_lerp``, so the result is bit-equal to
    ``np.quantile``.
    """
    top = np.sort(top)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return float(top[-1])
    below = math.floor(virtual)
    offset = n - top.size
    if below < offset:
        raise ValueError(f"{top.size} largest values cannot give quantile {q} of {n}")
    a, b = float(top[below - offset]), float(top[below + 1 - offset])
    t = virtual - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _peak_correlation(x: np.ndarray, template: np.ndarray, idx: int) -> float:
    """Largest |sum_k x[j+k] template[k]| over the lags j = idx-2 .. idx+2.

    The filter output before its normalization, taken directly at five lags.
    The caller keeps idx + 2 + template.size within ``x``.
    """
    return max(abs(float(np.dot(x[j: j + template.size], template)))
               for j in range(max(0, idx - 2), idx + 3))
