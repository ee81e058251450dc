import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from levkit import cli, dynamics, writer
from levkit.quantities import K_B, DomainError
from levkit.sensor import Sphere, TrapState, thermal_force_asd
from levkit.dynamics import (
    ImpulseEvent,
    SimulationConfig,
    ThresholdEstimateError,
    TimeSeries,
    estimate_psd,
    fit_lorentzian,
    simulate,
    total_damping,
)

SPHERE = Sphere(radius=5e-6)
TRAP = TrapState(resonant_frequency=100.0, damping_rate=20.0, temperature=300.0)
CONFIG = SimulationConfig(time_step=2e-4, duration=60.0, rng_seed=12345,
                          bath_temperature=300.0)

# Small sphere / stiff loop used for the impulse-detection tests: the
# matched-filter threshold needs >= 1e4 correlation times of noise.
IMP_SPHERE = Sphere(radius=0.15e-6)
IMP_TRAP = TrapState(resonant_frequency=1000.0, damping_rate=5.0, temperature=300.0)


def imp_config(g_fb, seed=777):
    return SimulationConfig(time_step=2e-5, duration=20.0, rng_seed=seed,
                            bath_temperature=300.0, feedback_gain=g_fb)


def search(trap, config, injected=(), false_alarm_rate=1.0):
    """An impulse search on ``IMP_SPHERE``: its ``Run``, and the recorded series
    from the one pass that sets the run's threshold and amplitudes."""
    run = dynamics.Run(IMP_SPHERE, trap, config, injected, false_alarm_rate)
    return run, run.series()


def threshold(trap, config, false_alarm_rate=1.0):
    """The impulse threshold of a noise-only search, kg m/s."""
    return search(trap, config, (), false_alarm_rate)[0].threshold.value


def trap_template(sphere, trap, config):
    """The search's matched-filter template: the model's unit-impulse response."""
    return dynamics._LinearTrap(sphere, trap, config).template()


def trap_filter(sphere, trap, config):
    """What the search's ``_NoiseThreshold`` takes: the template, and the
    denominator of the filter whose impulse response it is."""
    model = dynamics._LinearTrap(sphere, trap, config)
    return model.template(), model._impulse_filter[1]


def trap_noise(sphere, trap, config, n):
    """The first ``n`` samples of the trap's own thermal noise."""
    model = dynamics._LinearTrap(sphere, trap, replace(config, duration=n * config.time_step))
    x = np.concatenate([noise for _, noise, _ in model.blocks((), [])])
    assert x.size == n
    return x


def filter_outputs(monkeypatch, template, den, chunks):
    """Every |output| of the search's filter over the record fed as ``chunks``,
    in lag order: at a false-alarm probability of almost one every output is
    held, and none is partitioned before the quantile would sort them."""
    held = []
    monkeypatch.setattr(dynamics, "_top_quantile",
                        lambda top, n, q: held.append(top.copy()) or 0.0)
    noise_threshold = dynamics._NoiseThreshold(template, den, sum(map(len, chunks)),
                                               1.0 - 1e-12)
    for chunk in chunks:
        noise_threshold.take(chunk)
    noise_threshold.threshold()
    [outputs] = held
    return outputs


def matched_filter_outputs(samples, template):
    """Reference filter: the whole record correlated with the template by one FFT.

    Calibrated in momentum units, so a clean impulse q reads q at its sample.
    The search streams the same correlation as the trap's truncated IIR filter.
    """
    from scipy import signal

    full = signal.fftconvolve(samples, template[::-1], mode="full")
    return full[template.size - 1:] / float(np.dot(template, template))


def test_simulation_deterministic():
    a = simulate(SPHERE, TRAP, CONFIG)
    b = simulate(SPHERE, TRAP, CONFIG)
    assert np.array_equal(a.samples, b.samples)


def test_different_seed_differs():
    other = SimulationConfig(time_step=2e-4, duration=60.0, rng_seed=54321,
                             bath_temperature=300.0)
    a = simulate(SPHERE, TRAP, CONFIG)
    b = simulate(SPHERE, TRAP, other)
    assert not np.array_equal(a.samples, b.samples)


def test_time_step_guard():
    bad = SimulationConfig(time_step=1e-3, duration=60.0, rng_seed=1,
                           bath_temperature=300.0)
    with pytest.raises(DomainError):
        simulate(SPHERE, TRAP, bad)


def test_short_duration_guard_and_override():
    short = SimulationConfig(time_step=2e-4, duration=1.0, rng_seed=1,
                             bath_temperature=300.0)
    with pytest.raises(DomainError):
        simulate(SPHERE, TRAP, short)
    ok = SimulationConfig(time_step=2e-4, duration=1.0, rng_seed=1,
                          bath_temperature=300.0, allow_short_run=True)
    simulate(SPHERE, TRAP, ok)


def test_equipartition():
    series = simulate(SPHERE, TRAP, CONFIG)
    skip = int(5.0 / (TRAP.damping_rate * series.sample_interval))
    var = float(np.var(series.samples[skip:]))
    expected = K_B * 300.0 / (SPHERE.mass * TRAP.omega0**2)
    assert var == pytest.approx(expected, rel=0.03)


def test_cold_damping_reduces_variance():
    cooled = SimulationConfig(time_step=2e-4, duration=60.0, rng_seed=12345,
                              bath_temperature=300.0, feedback_gain=180.0)
    hot = simulate(SPHERE, TRAP, CONFIG)
    cold = simulate(SPHERE, TRAP, cooled)
    ratio = np.var(cold.samples[5000:]) / np.var(hot.samples[5000:])
    # T_eff drops by gamma/(gamma+g_fb) = 0.1
    assert ratio == pytest.approx(0.1, rel=0.15)


def test_psd_parseval():
    series = simulate(SPHERE, TRAP, CONFIG)
    est = estimate_psd(series, segment_length=8192)
    var = float(np.var(series.samples))
    assert np.sum(est.psd) * est.df == pytest.approx(var, rel=0.05)


def test_lorentzian_fit_recovers_parameters():
    series = simulate(SPHERE, TRAP, CONFIG)
    est = estimate_psd(series, segment_length=8192)
    fit = fit_lorentzian(est, SPHERE.mass, f_range=(20.0, 400.0))
    assert fit.f0 == pytest.approx(100.0, rel=0.02)
    assert fit.gamma == pytest.approx(20.0, rel=0.10)
    assert fit.force_asd == pytest.approx(
        thermal_force_asd(SPHERE, TRAP).value, rel=0.10
    )


def test_impulse_response_template_shape():
    tpl = trap_template(IMP_SPHERE, IMP_TRAP, imp_config(995.0))
    gamma_eff = 1000.0
    assert tpl.size == int(round(10.0 / gamma_eff / 2e-5))
    assert np.max(np.abs(tpl)) > 0.0


def test_matched_filter_calibration():
    """A clean injected impulse q must read back as a peak of q."""
    cfg = imp_config(995.0)
    quiet = SimulationConfig(time_step=cfg.time_step, duration=0.1, rng_seed=1,
                             bath_temperature=0.0, feedback_gain=995.0,
                             allow_short_run=True)
    q = 3e-19
    kick = ImpulseEvent(time=0.05, momentum_transfer=q, direction=1)
    series = simulate(IMP_SPHERE, IMP_TRAP, quiet, injected=[kick])
    tpl = trap_template(IMP_SPHERE, IMP_TRAP, quiet)
    out = matched_filter_outputs(series.samples, tpl)
    assert np.max(out) == pytest.approx(q, rel=1e-6)


def test_threshold_scales_with_cold_damping():
    """Doubling gamma_eff leaves the thermal force drive fixed but halves the
    filter correlation time, so the impulse threshold improves by ~sqrt(2)."""
    q1 = threshold(IMP_TRAP, imp_config(995.0))
    q2 = threshold(IMP_TRAP, imp_config(1995.0))
    assert q1 / q2 == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_detection_efficiency_above_threshold():
    cfg = imp_config(995.0)
    q_min = threshold(IMP_TRAP, cfg)
    events = [ImpulseEvent(time=t, momentum_transfer=2.0 * q_min, direction=1)
              for t in np.arange(1.0, 19.0, 1.0)]
    noisy = SimulationConfig(time_step=cfg.time_step, duration=cfg.duration,
                             rng_seed=4242, bath_temperature=300.0,
                             feedback_gain=995.0)
    found, _ = search(IMP_TRAP, noisy, events)
    hits = sum(1 for amp in found.amplitudes if amp > q_min)
    assert hits / len(events) > 0.95


def test_threshold_golden():
    """The full-rate threshold as the whole-record FFT filter of the noise gave it;
    the streamed recursive filter rounds differently, within 1e-12."""
    assert threshold(IMP_TRAP, imp_config(995.0)) == pytest.approx(
        1.396742048371855e-19, rel=1e-12, abs=0.0)


def test_search_draws_noise_and_template_once(monkeypatch):
    """One search: one discretised trap, one pass over its blocks, one template,
    two transfer functions, the impulses' steps found once, and no call of
    simulate (so no zero-temperature run)."""
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(dynamics, "simulate")
    for name in ("__init__", "blocks", "kick_steps", "template"):
        counted(dynamics._LinearTrap, name)
    counted(dynamics, "_displacement_filter")
    kick = ImpulseEvent(time=10.0, momentum_transfer=1e-18, direction=1)
    search(IMP_TRAP, imp_config(995.0), [kick])
    assert sorted(calls) == ["__init__", "_displacement_filter", "_displacement_filter",
                             "blocks", "kick_steps", "template"]


TRAPS = [
    (IMP_SPHERE, IMP_TRAP, imp_config(995.0)),
    (SPHERE, TRAP, CONFIG),
    (SPHERE, TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0,
                       feedback_gain=9.0), replace(CONFIG, time_step=1e-4, feedback_gain=3.0)),
]


@pytest.mark.parametrize("sphere, trap, config", TRAPS)
def test_transfer_functions_are_ss2tf(monkeypatch, sphere, trap, config):
    """Both (num, den) pairs are bit for bit scipy.signal.ss2tf's for the
    one-step map and kick column the trap builds them from."""
    from scipy import signal

    built = []
    build = dynamics._displacement_filter

    def recorded(m_step, column):
        built.append((m_step, column, build(m_step, column)))
        return built[-1][2]
    monkeypatch.setattr(dynamics, "_displacement_filter", recorded)
    dynamics._LinearTrap(sphere, trap, config)
    assert len(built) == 2
    for m_step, column, (num, den) in built:
        ref_num, ref_den = signal.ss2tf(m_step, column[:, None], [[1.0, 0.0]], [[0.0]])
        assert num.shape == den.shape == (3,)
        np.testing.assert_array_equal(bits(num), bits(ref_num[0]))
        np.testing.assert_array_equal(bits(den), bits(ref_den))


@pytest.mark.parametrize("sphere, trap, config", TRAPS)
def test_filter_kernel_is_lfilter(sphere, trap, config):
    """The kernel the model runs gives scipy.signal.lfilter's samples bit for
    bit, on the whole record and block by block with its state carried."""
    from scipy import signal

    model = dynamics._LinearTrap(sphere, trap, config)
    kernel = dynamics._linear_filter()
    x = np.random.default_rng(3).standard_normal(10_007) * model._kick_std
    for b, a in (model._noise_filter, model._impulse_filter):
        np.testing.assert_array_equal(bits(kernel(b, a, x, -1)), bits(signal.lfilter(b, a, x)))
        ref, ref_state = signal.lfilter(b, a, x, zi=np.zeros(2))
        state, parts = np.zeros(2), []
        for block in np.array_split(x, 13):
            out, state = kernel(b, a, block, -1, state)
            parts.append(out)
        np.testing.assert_array_equal(bits(np.concatenate(parts)), bits(ref))
        np.testing.assert_array_equal(bits(state), bits(ref_state))


@pytest.mark.parametrize("sphere, trap, config", TRAPS)
def test_template_is_the_zero_temperature_unit_kick_run(sphere, trap, config):
    """Bit for bit the response simulate gives to one unit kick at t = 0 from
    a cold run of 10/gamma_eff: the template's definition before it was
    filtered by the search's own discretised trap."""
    cold = replace(config, duration=10.0 / total_damping(trap, config),
                   bath_temperature=0.0, allow_short_run=True)
    kick = ImpulseEvent(time=0.0, momentum_transfer=1.0, direction=1)
    run = simulate(sphere, trap, cold, injected=[kick]).samples
    tpl = trap_template(sphere, trap, config)
    assert tpl.dtype == run.dtype and tpl.shape == run.shape
    np.testing.assert_array_equal(tpl.view(np.int64), run.view(np.int64))


def test_impulse_in_the_dropped_lags_rejected_before_simulating(monkeypatch):
    """An impulse whose five lags reach the last template length is an error,
    raised before any noise is drawn; the last usable step is accepted."""
    cfg = imp_config(995.0)
    drawn = []
    blocks = dynamics._LinearTrap.blocks
    monkeypatch.setattr(dynamics._LinearTrap, "blocks",
                        lambda self, *args: drawn.append(1) or blocks(self, *args))
    n, size = 1_000_000, 500                      # 20 s and 10 ms at 20 us
    last = (n - size - 3) * cfg.time_step
    late = ImpulseEvent(time=last + cfg.time_step, momentum_transfer=1e-18, direction=1)
    with pytest.raises(DomainError, match="last usable time"):
        search(IMP_TRAP, cfg, [late])
    assert drawn == []
    ok = ImpulseEvent(time=last, momentum_transfer=1e-18, direction=1)
    found, _ = search(IMP_TRAP, cfg, [ok])
    assert drawn == [1] and found.amplitudes[0] > 0.0


def test_decimated_record_is_a_compact_copy():
    thinned = simulate(SPHERE, TRAP, replace(CONFIG, record_decimation=10))
    full = simulate(SPHERE, TRAP, CONFIG)
    assert thinned.samples.flags.owndata and thinned.samples.flags.c_contiguous
    np.testing.assert_array_equal(thinned.samples, full.samples[::10])
    assert thinned.sample_interval == 10 * CONFIG.time_step


def test_threshold_requires_convergence():
    short = SimulationConfig(time_step=2e-5, duration=1.0, rng_seed=1,
                             bath_temperature=300.0, feedback_gain=995.0)
    with pytest.raises(ThresholdEstimateError):
        threshold(IMP_TRAP, short)


def test_impulse_outside_span_rejected():
    kick = ImpulseEvent(time=1e4, momentum_transfer=1e-19, direction=1)
    with pytest.raises(DomainError):
        simulate(SPHERE, TRAP, CONFIG, injected=[kick])


def write_trajectory(path, header, sample_interval, samples):
    """A trajectory CSV as ``levkit simulate`` writes one, of a whole series."""
    writer.write_series(path, header, cli._TRAJECTORY_COLUMNS, sample_interval, (samples,))


def test_timeseries_csv_round_trip(tmp_path):
    path = tmp_path / "ts.csv"
    write_trajectory(path, [("run", "demo")], 0.5, np.array([1.0, -2.25, 3.5e-7]))
    lines = path.read_text().splitlines()
    assert lines[0] == "# run = demo"
    data = [line.split(",") for line in lines if not line.startswith("#")]
    assert [float(row[1]) for row in data] == [1.0, -2.25, 3.5e-7]


@pytest.mark.parametrize("n", [0, 5, 7, 20])
def test_timeseries_csv_rows_across_chunks(tmp_path, monkeypatch, n):
    """Row counts below, at and not a multiple of the chunk: each row is
    repr(t), repr(x) with t the element of dt * np.arange(n)."""
    monkeypatch.setattr(writer, "_CHUNK_ROWS", 7)
    dt = 0.1
    x = np.random.default_rng(n).standard_normal(n)
    path = tmp_path / "ts.csv"
    write_trajectory(path, [], dt, x)
    rows = "".join(f"{t!r},{v!r}\n" for t, v in zip((dt * np.arange(n)).tolist(), x.tolist()))
    assert path.read_text() == "# columns = time_s,displacement_m\n" + rows


def test_timeseries_csv_memory_is_flat_in_rows(tmp_path):
    """Writing 1e5 rows and writing 1e6 rows each peak below 512 KiB: the
    writer holds one block's values, scratch and bytes (about 175 B for each
    of 2 x 1024 cells, 349 KiB), and no whole-record times or strings.  The
    two peaks agree within 4 KiB, though a block's bytes are longer at 1e6
    rows, whose times run past 10 s: nothing but the one block grows with
    its text."""
    import tracemalloc

    def peak(n):
        samples = np.random.default_rng(0).standard_normal(n)
        tracemalloc.start()
        try:
            write_trajectory(tmp_path / "ts.csv", [], 1e-4, samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)
    short, long = peak(100_000), peak(1_000_000)
    assert max(short, long) < 512 * 1024, (short, long)
    assert long - short < 4 * 1024, (short, long)


def test_trap_and_simulation_cold_damping_add():
    """trap.feedback_gain damps the simulated motion like simulation.feedback_gain."""
    trap_fb = TrapState(resonant_frequency=1000.0, damping_rate=5.0, temperature=300.0,
                        feedback_gain=995.0)
    assert total_damping(trap_fb, imp_config(0.0)) == 1000.0
    assert total_damping(IMP_TRAP, imp_config(995.0)) == 1000.0
    assert total_damping(trap_fb, imp_config(1000.0)) == 2000.0
    np.testing.assert_array_equal(
        simulate(IMP_SPHERE, trap_fb, imp_config(0.0)).samples,
        simulate(IMP_SPHERE, IMP_TRAP, imp_config(995.0)).samples)
    np.testing.assert_array_equal(
        trap_template(IMP_SPHERE, trap_fb, imp_config(0.0)),
        trap_template(IMP_SPHERE, IMP_TRAP, imp_config(995.0)))
    assert threshold(trap_fb, imp_config(0.0)) == threshold(IMP_TRAP, imp_config(995.0))


def whole_record_search(sphere, trap, config, injected, false_alarm_rate):
    """The search computed on whole-record arrays: the noise drawn and filtered
    in one pass, the threshold from ``matched_filter_outputs`` and
    ``np.quantile``, the amplitudes from the full-rate record.  Returns the
    noise, the record with impulses, the threshold and the amplitudes."""
    from scipy import signal

    model = dynamics._LinearTrap(sphere, trap, config)
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed))
    noise = signal.lfilter(*model._noise_filter,
                           rng.standard_normal(model.n) * model._kick_std)
    kicks = np.zeros(model.n)
    steps = model.kick_steps(injected)
    for ev, idx in zip(injected, steps):
        kicks[idx] += ev.direction * ev.momentum_transfer / model.mass
    x = noise + signal.lfilter(*model._impulse_filter, kicks) if injected else noise
    tpl = model.template()
    outputs = matched_filter_outputs(noise, tpl)[:-tpl.size]
    q = np.quantile(np.abs(outputs), 1.0 - false_alarm_rate * model.dt)
    norm = float(np.dot(tpl, tpl))
    amplitudes = tuple(
        max(abs(float(np.dot(x[j: j + tpl.size], tpl))) for j in range(max(0, idx - 2), idx + 3))
        / norm for idx in steps)
    return noise, x, float(q), amplitudes


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("block, decimation, false_alarm_rate",
                         [(300, 1, 1.0), (300, 7, 5000.0), (4096, 7, 1.0), (65536, 1, 5000.0),
                          (2**21, 1, 5000.0)])
def test_streamed_search_matches_whole_record_reference(monkeypatch, block, decimation,
                                                        false_alarm_rate):
    """Many block boundaries, blocks shorter than the 500-sample template, a
    record (1e6 steps) that is no multiple of the block, and one block longer
    than the record, so a single partial filter segment: the noise windows,
    the record and the amplitudes are the whole-record ones bit for bit, and
    the streamed threshold is within 1e-12 of the whole-record FFT filter's.
    At 5000 false alarms per second (p = 0.1) the quantile rests on the bulk
    of the outputs, so a wrong lag anywhere in the record moves it."""
    cfg = replace(imp_config(995.0), record_decimation=decimation)
    events = [ImpulseEvent(time=0.0, momentum_transfer=4e-19),
              ImpulseEvent(time=3000 * cfg.time_step, momentum_transfer=4e-19, direction=-1),
              ImpulseEvent(time=12.5, momentum_transfer=4e-19),
              ImpulseEvent(time=(1_000_000 - 503) * cfg.time_step, momentum_transfer=4e-19)]
    noise, x, q_ref, amp_ref = whole_record_search(IMP_SPHERE, IMP_TRAP, cfg, events,
                                                   false_alarm_rate)

    windows = []
    check = dynamics._check_energy_growth
    monkeypatch.setattr(dynamics, "_check_energy_growth",
                        lambda early, late: windows.append((early, late)) or check(early, late))
    monkeypatch.setattr(dynamics, "_BLOCK", block)
    found, series = search(IMP_TRAP, cfg, events, false_alarm_rate)
    relax = 50                                     # ceil(1 / (gamma_eff dt))
    [(early, late)] = windows
    np.testing.assert_array_equal(bits(early), bits(noise[2 * relax: 5 * relax]))
    np.testing.assert_array_equal(bits(late), bits(noise[-3 * relax:]))
    assert found.threshold.value == pytest.approx(q_ref, rel=1e-12, abs=0.0)
    assert found.amplitudes == amp_ref
    np.testing.assert_array_equal(bits(series.samples), bits(x[::decimation]))
    assert series.sample_interval == decimation * cfg.time_step
    simulated = simulate(IMP_SPHERE, IMP_TRAP, cfg, injected=events)
    np.testing.assert_array_equal(bits(simulated.samples), bits(x[::decimation]))


def test_streamed_search_skips_blocks_whose_response_has_decayed(monkeypatch):
    """Kicks 8 s apart: between them the response decays below the least normal
    double, so the impulse filter runs on fewer than half the blocks, and the
    record and the amplitudes are still the whole-record ones bit for bit and
    the threshold within 1e-12 of the whole-record FFT filter's."""
    cfg = imp_config(995.0)
    events = [ImpulseEvent(time=1.0, momentum_transfer=4e-19),
              ImpulseEvent(time=9.0, momentum_transfer=4e-19, direction=-1),
              ImpulseEvent(time=17.0, momentum_transfer=4e-19)]
    noise, x, q_ref, amp_ref = whole_record_search(IMP_SPHERE, IMP_TRAP, cfg, events, 1.0)

    impulse_num = dynamics._LinearTrap(IMP_SPHERE, IMP_TRAP, cfg)._impulse_filter[0]
    kernel = dynamics._linear_filter()
    filtered = []

    def counted(b, a, samples, axis, *state):
        if state and np.array_equal(b, impulse_num):
            filtered.append(samples.size)
        return kernel(b, a, samples, axis, *state)
    monkeypatch.setattr(dynamics, "_linear_filter", lambda: counted)
    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    found, series = search(IMP_TRAP, cfg, events)
    blocks = math.ceil(1_000_000 / 4096)
    assert len(events) <= len(filtered) < blocks // 2
    np.testing.assert_array_equal(bits(series.samples), bits(x))
    assert found.amplitudes == amp_ref
    assert found.threshold.value == pytest.approx(q_ref, rel=1e-12, abs=0.0)


def test_cold_run_ends_the_decayed_response_at_a_block_boundary(monkeypatch):
    """At zero temperature the record is lfilter's response to the kick train
    bit for bit through the block at whose end the filter state is first
    subnormal, and exactly +0.0 after it, where lfilter carries on with a
    subnormal limit cycle."""
    from scipy import signal

    cfg = replace(imp_config(995.0), duration=3.0, bath_temperature=0.0)
    kick = ImpulseEvent(time=0.01, momentum_transfer=4e-19)
    model = dynamics._LinearTrap(IMP_SPHERE, IMP_TRAP, cfg)
    kicks = np.zeros(model.n)
    kicks[model.kick_steps([kick])[0]] = kick.momentum_transfer / model.mass
    reference = signal.lfilter(*model._impulse_filter, kicks)

    block = 4096
    end, state = 0, np.zeros(2)
    while end == 0 or np.max(np.abs(state)) >= np.finfo(float).tiny:
        _, state = signal.lfilter(*model._impulse_filter, kicks[end: end + block], zi=state)
        end += block
    assert end < model.n and np.any(reference[end:] != 0.0)

    monkeypatch.setattr(dynamics, "_BLOCK", block)
    samples = simulate(IMP_SPHERE, IMP_TRAP, cfg, injected=[kick]).samples
    np.testing.assert_array_equal(bits(samples[:end]), bits(reference[:end]))
    assert not np.any(bits(samples[end:]))


def test_threshold_of_a_record_shorter_than_two_pieces_ignores_stale_memory():
    """Records shorter than one piece and than two, neither a multiple of the
    piece: past the record the filter reads zeros, so what its piece and its
    scans held before must not reach the threshold."""
    rng = np.random.default_rng(6)
    template, den = trap_filter(IMP_SPHERE, IMP_TRAP, imp_config(995.0))
    for size in (3000, 6000):
        noise = rng.standard_normal(size)
        reference = np.quantile(np.abs(matched_filter_outputs(noise, template)[:-template.size]),
                                0.99)
        noise_threshold = dynamics._NoiseThreshold(template, den, noise.size, 0.01)
        assert noise_threshold.piece.size == 4096
        noise_threshold.piece[:] = np.nan
        noise_threshold.scans[:] = np.nan
        noise_threshold.take(noise)
        assert noise_threshold.threshold() == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_pieces_are_one_template_length_and_at_most_one_block(monkeypatch):
    """A piece is W = M - 1 samples, at most one block: the benchmark trap's
    10^4-sample template takes 9999, and with blocks of 4096 it takes 4096,
    two whole pieces and 1807 samples to a window.  A shorter template takes
    2^12 samples, as the 500-sample one does.  Blocks of 1024 cut the
    3000-sample template's window into three pieces; there the threshold,
    over pieces that straddle the chunks fed, is still the whole-record FFT
    filter's within 1e-12."""
    def piece(trap, config):
        noise_threshold = dynamics._NoiseThreshold(*trap_filter(SPHERE, trap, config), 10**6, 0.01)
        return noise_threshold.piece.size, noise_threshold.q, noise_threshold.s

    bench = TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0)
    bench_config = replace(CONFIG, time_step=1e-4, feedback_gain=9.0)
    assert piece(IMP_TRAP, imp_config(995.0)) == (4096, 0, 499)
    assert piece(bench, bench_config) == (9999, 1, 0)
    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    assert piece(bench, bench_config) == (4096, 2, 1807)
    monkeypatch.setattr(dynamics, "_BLOCK", 1024)
    template, den = trap_filter(IMP_SPHERE, IMP_TRAP, imp_config(161.67))
    assert template.size == 3000
    noise = np.random.default_rng(9).standard_normal(200_000)
    reference = np.quantile(np.abs(matched_filter_outputs(noise, template)[:-template.size]), 0.99)
    noise_threshold = dynamics._NoiseThreshold(template, den, noise.size, 0.01)
    assert (noise_threshold.piece.size, noise_threshold.q, noise_threshold.s) == (1024, 2, 951)
    for chunk in np.array_split(noise, 7):
        noise_threshold.take(chunk)
    assert noise_threshold.threshold() == pytest.approx(reference, rel=1e-12, abs=0.0)


# The search's trap at its own time step (M = 500), the benchmark's
# impulse-search trap (M = 1e4), the paper's 100 Hz trap at its 0.4 ms time
# step with gamma = 0.25 1/s (M = 1e5), and the same trap at 0.1 ms with
# gamma = 1/s (M = 1e5), where a direct-form recursion is off by 2.5e-12 of
# the RMS; then that trap at 0.1 ms within 1e-3 of critical damping (M = 80,
# complex poles 9e-4 apart) and overdamped (M = 33, two real poles).
IIR_TRAPS = [
    (IMP_SPHERE, IMP_TRAP, imp_config(995.0)),
    (SPHERE, TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0),
     replace(CONFIG, time_step=1e-4, feedback_gain=9.0)),
    (SPHERE, TrapState(resonant_frequency=100.0, damping_rate=0.25, temperature=300.0),
     replace(CONFIG, time_step=4e-4)),
    (SPHERE, TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0),
     replace(CONFIG, time_step=1e-4)),
    (SPHERE, TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0),
     replace(CONFIG, time_step=1e-4, feedback_gain=1256.637)),
    (SPHERE, TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0),
     replace(CONFIG, time_step=1e-4, feedback_gain=3000.0)),
]


@pytest.mark.parametrize("sphere, trap, config", IIR_TRAPS)
def test_truncated_iir_outputs_are_direct_correlations(monkeypatch, sphere, trap, config):
    """On the trap's own noise, 4 M + 1234 samples (no multiple of the piece),
    the modal filter gives |sum_k x[j+k] h[k]| as np.dot does, within 1e-12 of
    the outputs' RMS, at 200 random lags and at the first two and the last
    two; fed whole instead of in 5 chunks, the same bits."""
    template, den = trap_filter(sphere, trap, config)
    x = trap_noise(sphere, trap, config, 4 * template.size + 1234)
    out = filter_outputs(monkeypatch, template, den, np.array_split(x, 5))
    assert out.size == x.size - template.size
    rng = np.random.default_rng(4)
    lags = [0, 1, out.size - 2, out.size - 1, *rng.integers(0, out.size, 200)]
    norm = float(np.dot(template, template))
    direct = np.array([abs(np.dot(x[j: j + template.size], template)) for j in lags]) / norm
    rms = np.sqrt(np.mean(out**2))
    assert np.max(np.abs(out[lags] - direct)) <= 1e-12 * rms
    whole = filter_outputs(monkeypatch, template, den, [x])
    np.testing.assert_array_equal(bits(whole), bits(out))


def test_long_template_joins_many_pieces(monkeypatch):
    """The paper's 100 Hz trap at 0.4 ms with gamma = 0.1 1/s: a 2.5e5-sample
    template, whose window spans seven whole pieces of 2^15 and part of an
    eighth.  At 40 lags the outputs are math.fsum's correlations within 1e-12
    of the outputs' RMS."""
    trap = TrapState(resonant_frequency=100.0, damping_rate=0.1, temperature=300.0)
    config = replace(CONFIG, time_step=4e-4)
    template, den = trap_filter(SPHERE, trap, config)
    assert template.size == 250_000 and template.size - 1 > 7 * dynamics._BLOCK
    x = trap_noise(SPHERE, trap, config, 340_001)
    out = filter_outputs(monkeypatch, template, den, np.array_split(x, 3))
    rng = np.random.default_rng(10)
    lags = [0, out.size - 1, *rng.integers(0, out.size, 38)]
    norm = float(np.dot(template, template))
    exact = np.array([abs(math.fsum(x[j: j + template.size] * template)) for j in lags]) / norm
    rms = np.sqrt(np.mean(out**2))
    assert np.max(np.abs(out[lags] - exact)) <= 1e-12 * rms


def test_realization_is_the_template_at_any_damping():
    """h[k] = phi A^(k-1) g from the filter's coefficients in long double is the
    direct-form template within 1e-13 of its RMS: the complex pair of the
    search's trap, the pair 9e-4 apart near critical damping, two real poles
    of an overdamped trap (in the basis of their modes), and a double pole,
    which has no modes."""
    near = TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0)
    cases = [trap_filter(IMP_SPHERE, IMP_TRAP, imp_config(995.0)) + (False,)]
    for gain, modal in ((1256.637, False), (3000.0, True)):
        cases.append(trap_filter(SPHERE, near, replace(CONFIG, time_step=1e-4,
                                                       feedback_gain=gain)) + (modal,))
    from scipy import signal

    den = np.array([1.0, -1.5, 0.5625])                  # (1 - 0.75 z^-1)^2
    kick = np.zeros(300)
    kick[0] = 1.0
    cases.append((signal.lfilter([0.0, 1.0, 0.5], den, kick), den, False))
    for template, den, modal in cases:
        size = 4096
        matrix, g, phi = dynamics._realization(den, template[1], template[2], size)
        assert (matrix[1, 0] == 0.0) == modal
        series = (dynamics._orbit(phi, matrix, template.size - 1) @ g).astype(float)
        rms = np.sqrt(np.mean(template**2))
        assert template[0] == 0.0
        assert np.max(np.abs(series - template[1:])) <= 1e-13 * rms


def _discriminant(gain, trap, config):
    """a1^2 / 4 - a2 of the trap's impulse filter at this feedback gain, exactly:
    above zero its poles are real."""
    den = dynamics._LinearTrap(SPHERE, trap, replace(config, feedback_gain=gain))._impulse_filter[1]
    return Fraction(float(den[1])) ** 2 / 4 - Fraction(float(den[2]))


@functools.lru_cache(maxsize=None)
def _critical_gain(trap, config):
    """The feedback gain at which the discretised trap's poles meet: the
    smallest double whose discriminant is above zero, by bisection."""
    lo, hi = 0.0, 8.0 * math.pi * trap.resonant_frequency
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            return hi
        if _discriminant(mid, trap, config) > 0:
            hi = mid
        else:
            lo = mid


NEAR_CRITICAL = (TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0),
                 replace(CONFIG, time_step=1e-5))


@pytest.mark.parametrize("offset", [-1e-6, -1e-8, -1e-10, 0.0, 1e-10, 1e-8, 1e-6])
def test_near_critical_outputs_are_direct_correlations(monkeypatch, offset):
    """A 100 Hz trap at 10 us within 1e-6, 1e-8 and 1e-10 of the feedback gain
    at which its discrete poles meet, on either side, and at it (M = 796):
    two real poles that close would share a residue of 1/(their distance)
    in modal form, but the filter's outputs on the trap's own noise stay
    np.dot's within 1e-12 of their RMS."""
    trap, config = NEAR_CRITICAL
    gain = _critical_gain(trap, config) * (1.0 + offset)
    config = replace(config, feedback_gain=gain)
    template, den = trap_filter(SPHERE, trap, config)
    assert (_discriminant(gain, trap, config) > 0) == (offset >= 0.0)
    x = trap_noise(SPHERE, trap, config, 4 * template.size + 1234)
    out = filter_outputs(monkeypatch, template, den, np.array_split(x, 5))
    lags = np.arange(0, out.size, 7)
    norm = float(np.dot(template, template))
    direct = np.array([abs(np.dot(x[j: j + template.size], template)) for j in lags]) / norm
    rms = np.sqrt(np.mean(out**2))
    assert np.max(np.abs(out[lags] - direct)) <= 1e-12 * rms


def test_two_sample_template_search():
    """A 100 Hz trap at 0.4 ms damped at 12499 1/s has a template of two
    samples, [0, h1]: the filter reads its one-sample window without h[2],
    and the search's threshold is the whole-record FFT filter's within
    1e-12."""
    trap = TrapState(resonant_frequency=100.0, damping_rate=1.0, temperature=300.0)
    config = SimulationConfig(time_step=4e-4, duration=4.0, rng_seed=5,
                              bath_temperature=300.0, feedback_gain=12499.0)
    run, _ = search(trap, config, (), false_alarm_rate=100.0)
    template = dynamics._LinearTrap(IMP_SPHERE, trap, config).template()
    assert template.size == 2 and template[0] == 0.0
    noise = trap_noise(IMP_SPHERE, trap, config, 10_000)
    reference = np.quantile(np.abs(matched_filter_outputs(noise, template)[:-template.size]),
                            1.0 - 100.0 * config.time_step)
    assert run.threshold.value == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_threshold_partitions_a_bounded_multiple_of_the_record(monkeypatch):
    """At p = 0.1 the held outputs are a tenth of the record.  They are cut back
    by partitioning them in place only once they have doubled, so the values
    partitioned stay a small multiple of the record instead of one held top
    per piece (about 29 records here, with ~240 pieces of 4096)."""
    rng = np.random.default_rng(5)
    template, den = trap_filter(IMP_SPHERE, IMP_TRAP, imp_config(995.0))
    noise = rng.standard_normal(1_000_000)
    reference = np.quantile(np.abs(matched_filter_outputs(noise, template)[:-template.size]), 0.9)
    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    partitioned = []

    class Held(np.ndarray):
        """The held outputs, recording the size of each partition of them."""

        def partition(self, kth):
            partitioned.append(self.size)
            super().partition(kth)

    noise_threshold = dynamics._NoiseThreshold(template, den, noise.size, 0.1)
    noise_threshold.top = noise_threshold.top.view(Held)
    for chunk in np.array_split(noise, 37):
        noise_threshold.take(chunk)
    assert noise_threshold.threshold() == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert 0 < sum(partitioned) <= 3 * noise.size


@pytest.mark.parametrize("seed", range(4))
def test_top_quantile_is_numpy_quantile(seed):
    """From the ceil(n p) + 2 largest values alone, bit for bit np.quantile's
    (1 - p) quantile, ties included."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5, 12, 97, 1000, 4099, 30_000):
        values = np.abs(rng.standard_normal(n))
        if seed % 2:
            values = np.round(values, 1)             # many ties
        for p in (0.0, 1e-5, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.999, 1.0 - 1e-12,
                  *rng.uniform(0.0, min(1.0, 10.0 / n), 5), *rng.uniform(0.0, 1.0, 5)):
            p = float(p)
            keep = min(n, math.ceil(n * p) + 2)
            top = np.sort(values)[n - keep:]
            rng.shuffle(top)
            got = dynamics._top_quantile(top, n, 1.0 - p)
            assert got.hex() == float(np.quantile(values, 1.0 - p)).hex(), (n, p)


def test_search_memory_is_flat_in_duration():
    """A noise-only search of 80 s (4e6 steps) peaks no higher than one of 20 s,
    bar the larger decimated record: nothing whole-record is held."""
    import tracemalloc

    def peak(duration):
        cfg = replace(imp_config(995.0), duration=duration, record_decimation=100)
        tracemalloc.start()
        try:
            search(IMP_TRAP, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20.0)                 # first use loads the filter kernel: not the search's
    short, long = peak(20.0), peak(80.0)
    record_growth = 8 * (80.0 - 20.0) / 2e-5 / 100
    assert long <= short + record_growth + 256 * 1024


@pytest.mark.parametrize("decimation", [1, 7])
def test_streamed_psd_is_estimate_psd_bit_for_bit(monkeypatch, decimation):
    """Blocks of 4096, segments of 3000 with hops of 1500, and decimation 7 do
    not align, so segments straddle chunks: the Welch estimate fed the run's
    chunks in its one pass is ``estimate_psd`` of the collected record bit for
    bit, and the chunks are ``simulate``'s samples."""
    monkeypatch.setattr(dynamics, "_BLOCK", 4096)
    cfg = replace(CONFIG, record_decimation=decimation)
    run = dynamics.Run(SPHERE, TRAP, cfg)
    welch = dynamics.Welch(3000, run.sample_interval, run.size)
    samples = np.concatenate(list(run.chunks(welch)))
    np.testing.assert_array_equal(bits(samples), bits(simulate(SPHERE, TRAP, cfg).samples))
    streamed = welch.estimate()
    whole = estimate_psd(TimeSeries(run.sample_interval, samples), 3000)
    assert streamed.n_segments == whole.n_segments == (samples.size - 3000) // 1500 + 1
    np.testing.assert_array_equal(bits(streamed.psd), bits(whole.psd))
    np.testing.assert_array_equal(bits(streamed.frequency), bits(whole.frequency))


def test_running_variance_is_np_var_to_rounding():
    """Merged chunk by chunk from ``skip`` on, ragged chunks and a skip that
    ends inside one included: np.var of the same samples within 1e-12."""
    x = 3e-8 + 1e-9 * np.random.default_rng(8).standard_normal(100_003)
    for skip in (0, 5, 4096, 50_001):
        variance = dynamics.RunningVariance(skip)
        for chunk in np.array_split(x, 29):
            variance.take(chunk)
        assert variance.value == pytest.approx(float(np.var(x[skip:])), rel=1e-12, abs=0.0)
    assert math.isnan(dynamics.RunningVariance(10).value)
