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

The discretisation lives in ``_LinearTrap`` alone, built once per ``Run``:
the matched-filter template is the impulse response of the filter that makes
the record.  The model runs in blocks of ``_BLOCK`` samples with its filter
state carried between them, so a whole-record array exists only where a
caller keeps one.  The noise is that of one whole-record pass bit for bit; so
is the impulses' response, except that the response is run only on a block
that holds a kick or starts from a nonzero state, and its state is set to
zero at the end of a block once every component is subnormal (below
``np.finfo(float).tiny``).  A whole-record pass would instead carry a
subnormal limit cycle to the end of the record.  At zero temperature that
tail is exactly +0.0 from the next block on; above zero it changes no sample
whose |noise| exceeds 2^-969 m.

One pass: a ``Run`` makes every check that depends only on its configuration
when it is built, then ``Run.chunks`` streams the recorded (decimated)
samples a block at a time.  Readers take each chunk as it passes: the
trajectory CSV writer (``writer.write_series``), the streaming Welch estimate
(``Welch``, which ``estimate_psd`` also runs on a whole series) and the
post-transient variance (``RunningVariance``).  ``simulate`` collects the
same pass into a ``TimeSeries``.

Impulse search: a ``Run`` given a false-alarm rate draws its thermal noise
once, at full rate; the matched filter turns the noise into filter outputs,
of which only the largest are kept for the threshold, and the impulse
amplitudes are read from the same record with the impulses added, both at
full rate.  ``record_decimation`` thins only the recorded trajectory.  The
template is the impulse response of the trap's own two-pole filter, so the
filter is a recursion on a two-component state (``_realization``), which
``_NoiseThreshold`` runs as one reversed cumulative sum over each piece of
the record, pieces that do not overlap, joined through one boundary value
per piece; no FFT is taken.  The pass holds O(template + N p) floats for N
samples at false-alarm probability p per sample, one template length for
each impulse whose lags it is inside, and a few blocks of samples: nothing
grows with N but the held filter outputs.  The filter's part is the scans
of at most W + 2 L samples, 16 B each, for a template of W + 1 samples and
pieces of L = min(W, ``_BLOCK``) (up to 2^12 for a shorter template), four
arrays of L (three tables and a scratch), and the held outputs.
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# scipy.optimize is imported inside the function that uses it: at module
# level it is most of the import time of every command.  The filter kernel is
# loaded from its file, with no scipy package imported (see ``_linear_filter``).

from . import _scipy
from .quantities import ComputeError, Dimension, DomainError, K_B, Quantity
from .sensor import Sphere, TrapState


class IntegrationError(ComputeError):
    """Integrator produced an unstable or runaway trajectory."""


class ThresholdEstimateError(ComputeError):
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
        # Steps are numbered, and their times found, in doubles: beyond 2^53 two
        # steps can share a number.  Checked before any array is sized by it.
        steps = self.duration / self.time_step
        if not steps <= 2.0**53:
            raise DomainError(
                f"simulation.duration / simulation.time_step = {steps:.3g} steps; "
                f"at most 2^53 = {2.0**53:.3g}")
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


# Samples per block of a streamed run; also the longest piece of the search's
# matched filter, whose pieces are one template length when it is shorter.
# The filter holds the scans of a template length and two pieces, 16 B a
# sample, and room for one block's outputs (see ``_NoiseThreshold``).
_BLOCK = 2**15


def _linear_filter():
    """scipy's compiled direct-form II transposed IIR kernel, ``_linear_filter``.

    ``_linear_filter(b, a, x, -1[, zi])`` is the call ``scipy.signal.lfilter``
    makes for a denominator of more than one coefficient, so its samples are
    lfilter's bit for bit.  The extension ``_sigtools`` is loaded from its file
    by ``_scipy.extension``, which imports no scipy package: ``import
    scipy.signal`` would load some 500 scipy modules (``scipy.stats`` and
    ``scipy.linalg`` among them) for this one function, 1.0-1.2 s and 76 MiB
    of resident memory with scipy 1.17 on a 2-core x86-64 VM, more than the
    filtering of a 1e7-sample search.
    """
    return _scipy.extension("signal", "_sigtools")._linear_filter


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
        # The noise's stationary variance kB T_eff / (m w0^2), which the energy-
        # growth check reads: BAOAB samples a harmonic trap's positions exactly
        # at any stable step (Leimkuhler and Matthews, JCP 138, 174102 (2013)).
        self._noise_variance = (K_B * config.bath_temperature * trap.damping_rate
                                / (mass * gamma_total * trap.omega0**2))

        unit_velocity = np.array([0.0, 1.0])
        self._noise_filter = _displacement_filter(m_step, kick @ drift @ unit_velocity)
        self._impulse_filter = _displacement_filter(m_step, m_step @ unit_velocity)

    def blocks(self, injected: Sequence[ImpulseEvent], steps: Sequence[int]):
        """The run from x = v = 0 in consecutive full-rate blocks of ``_BLOCK`` steps.

        Yields ``(start, noise, x)``: the block's first step, its thermal
        displacement (zeros at zero temperature) and its displacement with the
        impulses' response added, each impulse adding q/m to the velocity at
        its step in ``steps``, which is ``kick_steps(injected)`` in ascending
        order; kicks at one step add in the order given.  Both filters carry
        their state from block to block, so the samples are those of one
        whole-record pass, bit for bit, with one exception.  The impulse
        filter runs only on a block that holds a kick or starts from a nonzero
        state, and once its state is subnormal in every component at a block's
        end it is set to zero; a skipped block yields ``x`` as ``noise``
        itself.  So where one pass would leave a subnormal limit cycle, a
        zero-temperature run is exactly +0.0 from the next block on; with
        noise, only a sample with |noise| <= 2^-969 m could differ.  The last
        block's noise is checked for energy growth (``_check_energy_growth``).
        """
        linear_filter = _linear_filter()
        rng = None
        if self.config.bath_temperature > 0.0:
            rng = np.random.default_rng(np.random.SeedSequence(self.config.rng_seed))
        noise_state = np.zeros(self._noise_filter[1].size - 1)
        impulse_state = np.zeros(self._impulse_filter[1].size - 1)
        # The OU kicks of every block are drawn into this one buffer, and the
        # impulses' kicks put in it once the noise filter has read them.
        normals = np.empty(min(_BLOCK, self.n))
        first = 0                # the first kick not yet placed
        for start in range(0, self.n, _BLOCK):
            size = min(_BLOCK, self.n - start)
            if rng is None:
                noise = np.zeros(size)
            else:
                drawn = normals[:size]
                rng.standard_normal(out=drawn)
                drawn *= self._kick_std
                noise, noise_state = linear_filter(*self._noise_filter, drawn, -1,
                                                   noise_state)
            x = noise
            last = bisect.bisect_left(steps, start + size, first)
            if first < last or impulse_state.any():
                kicks = normals[:size]
                kicks[:] = 0.0
                for ev, idx in zip(injected[first:last], steps[first:last]):
                    kicks[idx - start] += ev.direction * ev.momentum_transfer / self.mass
                first = last
                response, impulse_state = linear_filter(*self._impulse_filter, kicks, -1,
                                                        impulse_state)
                # A decayed response never reaches zero: it settles into a
                # limit cycle of subnormal doubles, which the kernel runs many
                # times slower than normal ones.  End it at the block's end.
                if np.max(np.abs(impulse_state)) < np.finfo(float).tiny:
                    impulse_state[:] = 0.0
                x = np.add(noise, response, out=response)
            yield start, noise, x
        if rng is not None and self.n:
            _check_energy_growth(float(np.dot(noise, noise)) / noise.size, self._noise_variance)

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
        size = int(round(length / self.dt))
        if size == 0:
            raise DomainError(f"matched-filter template of 10/gamma_total = {length} s "
                              f"is shorter than half a time step ({self.dt} s)")
        kicks = np.zeros(size)
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
    """The samples of the steps [start, stop) of a run streamed in blocks,
    copied into one array as the blocks that overlap it pass."""

    def __init__(self, start: int, stop: int):
        self.start, self.stop = start, stop
        self.values = np.empty(stop - start)

    def take(self, first: int, block: np.ndarray):
        """Copy what ``block``, whose first sample is step ``first``, holds of the span."""
        lo, hi = max(self.start, first), min(self.stop, first + block.size)
        self.values[lo - self.start: hi - self.start] = block[lo - first: hi - first]


class Run:
    """One simulated run from x = v = 0, checked whole and then streamed in one pass.

    Building it makes every check that depends only on the configuration:
    the trap's time step and stability, each impulse inside the simulated
    span and, given a ``false_alarm_rate``, the impulse search's checks
    below; without one, the 100-relaxation-time floor unless
    ``allow_short_run``.  So a run that fails these draws no sample.
    ``chunks`` is the pass itself; ``series`` reads it, as may a writer.

    Given a ``false_alarm_rate`` (FAR, per second), the run is also the
    impulse search, and the pass sets ``threshold`` and ``amplitudes``.  The
    threshold is the empirical (1 - FAR * dt) quantile of |filter output| on
    the thermal noise alone, drawn once at full rate; no Gaussian assumption.
    It requires at least 1e4 filter correlation times (~1/gamma_eff) of
    simulated noise.  The impulses' response is added to the same blocks,
    and each amplitude is the largest |filter output| at the five full-rate
    lags around its impulse, whatever ``record_decimation`` is; only the
    recorded series is decimated.  An impulse whose lags reach into the last
    template length of the record, which the threshold drops, is a
    ``DomainError``.  The search holds O(template + N p) floats for N samples
    and false-alarm probability p = FAR * dt per sample, plus one template
    length for each impulse whose lags the pass is inside: never the whole
    full-rate record.
    ``series`` adds the N / ``record_decimation`` recorded samples; a
    writer given ``chunks`` writes them as the pass goes instead.
    """

    def __init__(self, sphere: Sphere, trap: TrapState, config: SimulationConfig,
                 injected: Sequence[ImpulseEvent] = (),
                 false_alarm_rate: Optional[float] = None):
        if false_alarm_rate is not None:
            if false_alarm_rate <= 0.0:
                raise DomainError("false alarm rate must be positive")
            n_correlation_times = config.duration * total_damping(trap, config)
            if n_correlation_times < 1.0e4:
                raise ThresholdEstimateError(
                    f"noise distribution not converged: {n_correlation_times:.0f} filter "
                    "correlation times simulated, need >= 1e4"
                )
        self._model = model = _LinearTrap(sphere, trap, config)
        self._decimation = config.record_decimation
        steps = model.kick_steps(injected)
        # In step order; the stable sort keeps kicks at one step in the order given.
        self._order = order = sorted(range(len(steps)), key=steps.__getitem__)
        self._injected = [injected[i] for i in order]
        self._steps = [steps[i] for i in order]
        self._noise_threshold = None
        if false_alarm_rate is None:
            if config.duration < 100.0 / model.gamma_total and not config.allow_short_run:
                raise DomainError(
                    "duration shorter than 100 relaxation times; set allow_short_run to override"
                )
        else:
            self._template = template = model.template()
            # The threshold keeps the lags whose correlation has the whole
            # template inside the record; an amplitude is read only from lags
            # it keeps.
            last = model.n - template.size - 3
            for ev, idx in zip(injected, steps):
                if idx > last:
                    raise DomainError(
                        f"impulse at t = {ev.time} s is inside the last filter template "
                        f"length of the record; the last usable time is {last * model.dt} s")
            self._noise_threshold = _NoiseThreshold(template, model._impulse_filter[1],
                                                    model.n, false_alarm_rate * model.dt)
        self.sample_interval = config.time_step * config.record_decimation
        self.size = len(range(0, model.n, config.record_decimation))   # recorded samples
        # The search's results, set at the end of the pass.
        self.threshold: Optional[Quantity] = None
        self.amplitudes: tuple = ()

    def chunks(self, *readers):
        """The pass: the recorded samples, one block's worth at a time.

        Every ``record_decimation``-th full-rate sample is recorded.  Each
        reader's ``take`` gets every chunk before it is yielded; the search
        reads the full-rate blocks, and sets ``threshold`` and ``amplitudes``
        after the last one, still inside the pass.  A chunk that holds a
        non-finite sample is a ``DomainError``.
        """
        step, search, steps = self._decimation, self._noise_threshold, self._steps
        amplitudes = [0.0] * len(steps)
        # An amplitude reads the five lags idx-2 .. idx+2, a template length
        # each: a span opened once the pass reaches idx - 2, read and dropped
        # once whole, so spans close in step order, as they open.
        reads, opened = collections.deque(), 0
        for start, noise, x in self._model.blocks(self._injected, steps):
            end = start + noise.size
            if search is not None:
                search.take(noise)
                opening = bisect.bisect_left(steps, end + 2, opened)     # idx - 2 < end
                reads.extend((k, _Span(max(0, steps[k] - 2), steps[k] + 2 + self._template.size))
                             for k in range(opened, opening))
                opened = opening
                for _, read in reads:
                    read.take(start, x)
                while reads and reads[0][1].stop <= end:
                    k, read = reads.popleft()
                    amplitudes[self._order[k]] = _peak_correlation(
                        read.values, self._template, steps[k] - read.start) / search.norm
            chunk = x[-start % step::step]
            if not np.isfinite(chunk).all():
                raise DomainError("time series contains non-finite samples")
            for reader in readers:
                reader.take(chunk)
            yield chunk
        if search is not None:
            self.amplitudes = tuple(amplitudes)
            self.threshold = Quantity(search.threshold(), Dimension.MOMENTUM)

    def series(self) -> TimeSeries:
        """The whole recorded series, collected from one pass."""
        samples = np.empty(self.size)
        at = 0
        for chunk in self.chunks():
            samples[at: at + chunk.size] = chunk
            at += chunk.size
        return TimeSeries(sample_interval=self.sample_interval, samples=samples)


def simulate(
    sphere: Sphere,
    trap: TrapState,
    config: SimulationConfig,
    injected: Sequence[ImpulseEvent] = (),
) -> TimeSeries:
    """Integrate the damped, thermally driven oscillator from x = v = 0.

    Deterministic for a given (rng_seed, config).  Injected impulses add
    q/m to the velocity at the nearest time step.  The recorded (decimated)
    series is collected from one ``Run`` pass; the full-rate record is never
    held.
    """
    return Run(sphere, trap, config, injected).series()


def _check_energy_growth(mean_square: float, variance: float):
    """Flag runaway trajectories: late RMS > 10x the stationary RMS."""
    if mean_square > 100.0 * variance:
        raise IntegrationError(f"energy growth detected: late RMS {math.sqrt(mean_square):.3e} m "
                               f"vs stationary {math.sqrt(variance):.3e} m")


@dataclass(frozen=True)
class PsdEstimate:
    frequency: np.ndarray     # Hz
    psd: np.ndarray           # one-sided, m^2/Hz for displacement input
    n_segments: int

    @property
    def df(self) -> float:
        return float(self.frequency[1] - self.frequency[0])


class Welch:
    """Averaged-periodogram (Welch) one-sided PSD of a series of ``size``
    samples fed in blocks: Hann window, 50 % overlap.

    Scaling uses the mean-square window correction, so sum(PSD) * df equals
    the variance of the window-corrected series.  The segments are summed in
    order, so the estimate does not depend on how the series is cut into
    blocks.  A segment length below 8 or above ``size`` is a ``DomainError``,
    raised on construction.
    """

    def __init__(self, segment_length: int, sample_interval: float, size: int):
        m = int(segment_length)
        if m < 8:
            raise DomainError("segment length too short")
        if size < m:
            raise DomainError(f"series of {size} samples shorter than one segment ({m})")
        self.segment = np.empty(m)
        self.overlap = m - int(round(m * 0.5))
        self.filled = 0          # samples of the segment held so far
        self.sample_interval = sample_interval
        self.window = np.hanning(m)
        self.acc = np.zeros(m // 2 + 1)
        self.n_segments = 0

    def take(self, block: np.ndarray):
        """The next samples of the series; each full segment is added once."""
        size = self.segment.size
        while block.size:
            count = min(block.size, size - self.filled)
            self.segment[self.filled: self.filled + count] = block[:count]
            self.filled += count
            block = block[count:]
            if self.filled == size:
                self.acc += np.abs(np.fft.rfft(self.segment * self.window)) ** 2
                self.n_segments += 1
                self.segment[:self.overlap] = self.segment[size - self.overlap:]
                self.filled = self.overlap

    def estimate(self) -> PsdEstimate:
        """The PSD of the segments taken so far."""
        m = self.segment.size
        fs = 1.0 / self.sample_interval
        u = float(np.mean(self.window**2))
        psd = self.acc / (self.n_segments * fs * m * u)
        psd[1:] *= 2.0
        if m % 2 == 0:
            psd[-1] /= 2.0
        freqs = np.fft.rfftfreq(m, d=self.sample_interval)
        return PsdEstimate(frequency=freqs, psd=psd, n_segments=self.n_segments)


def estimate_psd(series: TimeSeries, segment_length: int) -> PsdEstimate:
    """``Welch`` PSD of a whole series."""
    welch = Welch(segment_length, series.sample_interval, series.samples.size)
    welch.take(series.samples)
    return welch.estimate()


class RunningVariance:
    """Population variance of a record's samples from ``skip`` on, fed in chunks.

    Each chunk's mean and sum of squared deviations are merged into the
    running ones (Chan, Golub & LeVeque, Am. Stat. 37, 242 (1983)), so no
    sample is held.  It agrees with ``np.var`` of the same samples to
    rounding, not bit for bit.  With no sample past ``skip`` it is NaN.
    """

    def __init__(self, skip: int):
        self.skip = skip
        self.seen = 0            # samples taken, skipped ones included
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0            # sum of squared deviations from the mean

    def take(self, chunk: np.ndarray):
        part = chunk[max(0, self.skip - self.seen):]
        self.seen += chunk.size
        if part.size:
            mean = float(np.mean(part))
            dev = part - mean
            m2 = float(np.sum(np.multiply(dev, dev, out=dev)))
            count = self.count + part.size
            delta = mean - self.mean
            self.mean += delta * part.size / count
            self.m2 += m2 + delta * delta * self.count * part.size / count
            self.count = count

    @property
    def value(self) -> float:
        return self.m2 / self.count if self.count else math.nan


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


def _realization(den: np.ndarray, h1: float, h2: float, size: int) -> tuple:
    """A real 2x2 matrix A and vectors g, phi with h[k] = phi A^(k-1) g for k >= 1.

    h is the impulse response of a filter with denominator ``den`` = [1, a1,
    a2] and h[0] = 0, given by h1 = h[1] and h2 = h[2].  A's characteristic
    polynomial is den's, so A^k g runs the filter's own recursion.  The
    arithmetic is long double, from D = a1^2 / 4 - a2 taken exactly.  Written
    p^k = a_k + b_k J for the pole p = m + J, m = -a1 / 2 and J^2 = D, A
    acts on (a_k, b_k): A = [[m, D], [1, m]], g = (1, 0) and phi = (h1, h2 -
    m h1).  Nothing is divided, so a double pole (D = 0) and poles close to
    one are as exact as any others.  The inverse powers of that A grow as
    the smaller real pole's, though, so two real poles p1 > p2 whose ratio
    exceeds e^2 over ``size`` samples take the basis of their modes instead:
    A = diag(p1, p2), g = (1, 1), phi = (c, h1 - c) with c = (h2 - h1 p2) /
    (p1 - p2), a residue no longer much larger than h.
    """
    a1, a2 = float(den[1]), float(den[2])
    (n1, d1), (n2, d2) = a1.as_integer_ratio(), a2.as_integer_ratio()
    num, div = n1 * n1 * d2 - 4 * n2 * d1 * d1, 4 * d1 * d1 * d2      # D = num / div
    hi = num / div                       # rounded once, then the exact remainder
    hn, hd = hi.as_integer_ratio()
    d = np.longdouble(hi) + np.longdouble((num * hd - hn * div) / (div * hd))
    m = np.longdouble(-a1 / 2.0)
    h1, h2 = np.longdouble(h1), np.longdouble(h2)
    if d > 0:
        p1 = m + np.copysign(np.sqrt(d), m)      # the larger, then a2 / p1
        p2 = a2 / p1
        if size * np.log(abs(p1 / p2)) > 2.0:
            c = (h2 - h1 * p2) / (p1 - p2)
            return np.diag([p1, p2]), np.ones(2, np.longdouble), np.array([c, h1 - c])
    return (np.array([[m, d], [1.0, m]]), np.array([1.0, 0.0], np.longdouble),
            np.array([h1, h2 - m * h1]))


def _orbit(start: np.ndarray, step: np.ndarray, n: int) -> np.ndarray:
    """``start @ step^k`` for k < n, stacked, each the product of at most
    log2(n) + 1 others: the second half of every doubling is the first
    times one power of ``step``."""
    out = np.empty((n, *start.shape), start.dtype)
    out[0] = start
    done, power = 1, step                    # power is step^done
    while done < n:
        count = min(done, n - done)
        np.matmul(out[:count], power, out=out[done: done + count])
        power = power @ power
        done += count
    return out


def _packed(pairs: np.ndarray) -> np.ndarray:
    """Pairs (a, b), one to a row, as the complex numbers a + i b."""
    out = np.empty(len(pairs), complex)
    out.real, out.imag = pairs.T
    return out


class _NoiseThreshold:
    """The (1 - p) quantile of |matched-filter output| on a noise record fed in blocks.

    The filter output at lag j is sum_{k<M} x[j+k] h[k] / |h|^2 for the
    template h of M samples, calibrated so that a clean impulse q reads q.
    The template is the impulse response of the trap's own two-pole filter,
    with h[0] = 0, so h[k] = phi A^(k-1) g for a real 2x2 matrix A whose
    eigenvalues are the filter's poles (``_realization``), and the output at
    lag j is phi S[j+1] with S[i] = sum_{u<W} A^u g x[i+u] and W = M - 1:
    the truncated IIR filter of A. Wang and J. O. Smith, IEEE Trans. Signal
    Process. 45, 1415 (1997), in state-space form.

    The record from its second sample on is cut into pieces of L samples
    that do not overlap, W = q L + s.  Each piece is scanned once, from zero
    state at its end, as a reversed ``np.cumsum``: C[t] = sum_{t<=u<L} A^u g
    y[u] for its samples y.  The window of S at offset t of piece b ends at
    offset r = t + s - e L of piece c = b + q + e (e is 0 or 1), and
        phi S = phi A^-t (C_b[t] + sum_{d=1}^{q+e} A^(d L) C_{b+d}[0])
                - phi A^(W-r) C_c[r],
    the boundary vectors C[0] joining the whole pieces between.  The rows
    phi A^-t and phi A^(W-r) are tables over t and r < L, so an output is a
    table's row times a scan's vector, twice.  A vector (a, b) is held as
    the complex a + i b, which ``np.cumsum`` scans as two interleaved
    chains, and a table's row (u, w) as u - i w, so that the real part of a
    product is u a + w b.  Piece b's outputs are taken once piece b + q + 1
    is scanned, and the scans of the q + 2 pieces from b on are all that
    the filter holds of the record: at most W + 2 L complex values, beside
    its scratch and three tables of L; the piece being filled takes the
    ring's free slot.  No term is much larger than the output, so nothing
    cancels.  L is W, at most ``_BLOCK``; a template shorter than 2^12
    samples takes pieces of up to 2^12, as long as the fastest pole decays
    by no more than e^300 over one, so no power of A under- or overflows.
    The last M lags, where the template overruns the record, are dropped;
    past the record the pieces hold zeros.  Of the kept outputs at most 2
    (ceil(lags * p) + 2) plus one ``_BLOCK``'s are held, always including
    the ceil(lags * p) + 2 largest, which is enough for ``_top_quantile`` to
    give ``np.quantile`` of all of them exactly.  It takes no FFT.
    """

    def __init__(self, template: np.ndarray, den: np.ndarray, n: int, p_exceed: float):
        m = template.size
        self.norm = float(np.dot(template, template))
        if self.norm <= 0.0:
            raise DomainError("degenerate matched-filter template")
        self.lags = n - m
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
        # Pieces of W samples, at most _BLOCK; a short template's are longer,
        # which spares the per-piece work of numpy calls on a few samples.
        decay = -math.log(float(np.min(np.abs(np.roots(den)))))
        size = min(_BLOCK, max(m - 1, min(2**12, int(300.0 / decay))))
        self.q, self.s = q, s = divmod(m - 1, size)
        # A 2-sample template's window is its one sample, whose output h[1] x
        # = phi g x holds no h[2]; taking h[2] = m h[1], m = -a1 / 2, keeps
        # both terms of phi no larger than h[1].
        h2 = template[2] if m > 2 else -den[1] / 2.0 * template[1]
        matrix, g, phi = _realization(den, template[1], h2, size)
        (a, b), (c, d) = matrix
        inverse = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
        joins = _orbit(np.eye(2, dtype=matrix.dtype), np.linalg.matrix_power(matrix, size),
                       q + 2)                                    # A^(d L), d <= q + 1
        self.up = _packed(_orbit(g, matrix.T, size))             # A^u g, u < L
        self.down = _packed(_orbit(phi, inverse, size)).conj()   # phi A^-t
        self.tail = _packed(_orbit(phi @ joins[q] @ np.linalg.matrix_power(matrix, s), inverse,
                                   size)).conj()                 # phi A^(W-r)
        self.joins = _packed(joins[:, :, 0]), _packed(joins[:, :, 1])   # A^(d L) (1, 0), (0, 1)
        self.scans = np.empty((q + 2, size), complex)
        self.scanned = 0
        # The next piece's samples, each times its A^u g, in the free slot of
        # the ring that its scan will take in place.
        self.piece = self.scans[0]
        self.filled = 0          # samples of the piece held so far
        self.skip = 1            # the record's first sample, which h[0] = 0 ignores
        self.scratch = np.empty(size, complex)
        # |outputs|, unnormalized: the largest so far, then the newer ones,
        # then room for at least one block's outputs.  Cut back to the largest
        # ``keep`` only when that room runs out, so each partition is paid
        # for by at least ``keep`` appended values.
        self.top = np.empty(2 * self.keep + _BLOCK)
        self.held = 0

    def take(self, block: np.ndarray):
        """The next samples of the record."""
        skip = min(self.skip, block.size)
        block = block[skip:]
        self.skip -= skip
        size = self.piece.size
        while block.size:
            count = min(block.size, size - self.filled)
            at = slice(self.filled, self.filled + count)
            np.multiply(block[:count], self.up[at], out=self.piece[at])
            self.filled += count
            block = block[count:]
            if self.filled == size:
                self._scan()

    def _scan(self):
        """Scan the full piece, then take the outputs of the piece q + 1 before it."""
        scan = self.piece
        np.cumsum(scan[::-1], out=scan[::-1])
        self.scanned += 1
        self.filled = 0
        first = self.scanned - self.scans.shape[0]
        if first >= 0:
            self._outputs(first)
        self.piece = self.scans[self.scanned % self.scans.shape[0]]   # piece first's, now free

    def _outputs(self, b: int):
        """Keep the |outputs| at the lags of piece b; its scan, in place, becomes
        the sum the class docstring joins, in its real part."""
        q, s, scans, scratch = self.q, self.s, self.scans, self.scratch
        size = self.piece.size
        count = min(size, self.lags - b * size)
        ring = scans.shape[0]
        boundary = scans[(b + np.arange(q + 2)) % ring, 0]      # C_{b+d}[0]
        boundary[0] = 0.0
        # sum_{d=1}^{j} A^(d L) C_{b+d}[0] for j = 0 .. q + 1
        joined = np.cumsum(boundary.real * self.joins[0] + boundary.imag * self.joins[1])
        v = scans[b % ring]
        for lo, hi, e in ((0, size - s, 0), (size - s, size, 1)):
            if lo < hi:
                at = slice(lo + s - e * size, hi + s - e * size)   # r; c may be b
                np.multiply(scans[(b + q + e) % ring][at], self.tail[at], out=scratch[lo:hi])
                v[lo:hi] += joined[q + e]
                v[lo:hi] *= self.down[lo:hi]
                v[lo:hi] -= scratch[lo:hi]
        if self.held + count > self.top.size:
            cut = self.held - self.keep
            self.top[:self.held].partition(cut)
            self.top[:self.keep] = self.top[cut:self.held]
            self.held = self.keep
        out = self.top[self.held: self.held + count]
        out[:] = v.real[:count]
        np.abs(out, out=out)
        self.held += count

    def threshold(self) -> float:
        """The quantile, kg m/s, of the whole record; consumes the held outputs."""
        while (self.scanned - self.q - 1) * self.piece.size < self.lags:
            # Past the record's end: zeros, which no kept lag reads.
            self.piece[self.filled:] = 0.0
            self._scan()
        top = self.top[:self.held]
        return _top_quantile(np.divide(top, self.norm, out=top), self.lags, self.quantile)


def _top_quantile(top: np.ndarray, n: int, q: float) -> float:
    """``np.quantile(a, q)`` of an array ``a`` of ``n`` values, from its largest.

    ``top`` holds the largest values of ``a`` (any order), enough of them to
    include both order statistics that the linear rule interpolates.  The
    arithmetic is numpy's own: virtual index (n - 1) q, and the two-sided
    lerp of numpy's private ``_lerp``, so the result is bit-equal to
    ``np.quantile``.  Sorts ``top`` in place.
    """
    top.sort()
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
