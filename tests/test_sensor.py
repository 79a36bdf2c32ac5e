import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nprsim import (
    DpsModel,
    NoResonanceError,
    Transducer,
    TubeAssembly,
    UnstableStepError,
    archetype,
    frequency_sweep,
    helmholtz_resonant_hz,
    load_archetypes,
    natural_resonant_hz,
    peak_decay,
    step_response,
    step_response_fn,
    system_resonant_hz,
)
from nprsim import sensor
from nprsim.countermeasures import apply_lpf, lpf_cascade
from nprsim.sensor import _DRIVE_SAMPLES, MIN_SAMPLES_PER_PERIOD, LinearChain, step_last_outside

import lfilter_reference


# Independent Helmholtz arithmetic: the lumped law c sqrt(A k / (L V m)) / 2pi
# for a tube of cross-section A and length L, where k/m = (2 pi f_n)^2 for
# the bare resonance f_n, and the cavity volume V is back-solved so one
# meter of 5/16 inch tube gives 0.88 f_n.
_SOUND_SPEED_MPS = 343.0
_REF_AREA_M2 = math.pi * (5.0 / 16.0 * 0.0254) ** 2 / 4.0
_CAVITY_M3 = _REF_AREA_M2 * (_SOUND_SPEED_MPS / 0.88) ** 2


def _helmholtz_hz(f_n, length_m, diameter_m):
    area = math.pi * diameter_m**2 / 4.0
    k_over_m = (2.0 * math.pi * f_n) ** 2
    return _SOUND_SPEED_MPS * math.sqrt(area * k_over_m / (length_m * _CAVITY_M3)) / (2.0 * math.pi)


def test_natural_resonance_matches_stiffness_mass_arithmetic():
    # A stiffness k = m (2 pi f_mid)^2 puts sqrt(k/m)/2pi at the band midpoint.
    model = archetype("A1011-00")
    mass = 1.0e-4
    stiffness = mass * (2.0 * math.pi * 0.5 * sum(model.resonant_band_hz)) ** 2
    expected = math.sqrt(stiffness / mass) / (2.0 * math.pi)
    assert natural_resonant_hz(model) == pytest.approx(expected, rel=1e-12)
    assert natural_resonant_hz(model) == pytest.approx(685.0, abs=1e-9)


def test_helmholtz_golden_value_one_meter_tube():
    model = archetype("A1011-00")
    tube = TubeAssembly(length_m=1.0)
    expected = _helmholtz_hz(natural_resonant_hz(model), tube.length_m, tube.inner_diameter_m)
    assert helmholtz_resonant_hz(model, tube) == pytest.approx(expected, rel=1e-12)
    assert helmholtz_resonant_hz(model, tube) == pytest.approx(602.8, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 1e5), st.floats(0.01, 10.0), st.floats(1e-6, 10.0),
       st.floats(1e-4, 0.1))
def test_helmholtz_matches_independent_arithmetic(low_hz, width, length_m, diameter_m):
    model = DpsModel("X", Transducer.CAPACITIVE, (-500.0, 500.0), (low_hz, low_hz * (1.0 + width)))
    tube = TubeAssembly(length_m=length_m, inner_diameter_m=diameter_m)
    expected = _helmholtz_hz(natural_resonant_hz(model), length_m, diameter_m)
    assert helmholtz_resonant_hz(model, tube) == pytest.approx(expected, rel=1e-12)


def test_helmholtz_halves_by_sqrt2_when_length_doubles():
    model = archetype("A1011-00")
    for length in (0.25, 0.7, 1.0, 1.8):
        ratio = helmholtz_resonant_hz(model, TubeAssembly(length_m=length)) / \
            helmholtz_resonant_hz(model, TubeAssembly(length_m=2.0 * length))
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_system_resonance_dispatches_on_tube():
    model = archetype("A1011-00")
    assert system_resonant_hz(model, None) == natural_resonant_hz(model)
    bare = TubeAssembly(length_m=0.0)
    assert system_resonant_hz(model, bare) == natural_resonant_hz(model)
    tube = TubeAssembly(length_m=1.0)
    assert system_resonant_hz(model, tube) == helmholtz_resonant_hz(model, tube)


def test_peak_decay_golden_and_shape():
    omega = 2.0 * math.pi * 680.0
    assert peak_decay(1.0, 0.0, omega, 1e-3) == pytest.approx(0.073530951238, abs=1e-11)
    # release from rest: monotone decay, no undershoot
    t = np.linspace(0.0, 0.02, 500)
    p = np.asarray(peak_decay(1.0, 0.0, omega, t))
    assert p[0] == pytest.approx(1.0)
    assert np.all(np.diff(p) <= 0.0)
    assert np.all(p >= 0.0)


def test_step_response_dc_gain_is_unity():
    model = archetype("A1011-00").with_damping(0.05)
    fs = model.sample_rate_hz
    inlet = np.ones(int(0.4 * fs))
    trace = step_response(model, None, inlet, 1.0 / fs)
    assert float(trace.p_out_pa[-1]) == pytest.approx(1.0, abs=1e-3)


def test_integrator_converges_at_fourth_order():
    """Halving dt should shrink the error by about 16x; require at least 8x."""
    model = archetype("A1011-00")
    omega = 2.0 * math.pi * natural_resonant_hz(model)
    t_end = 0.004

    def closed_form(t):
        return 1.0 - math.exp(-omega * t) * (1.0 + omega * t)

    errors = []
    for dt in (2e-6, 1e-6):
        trace = step_response_fn(model, None, lambda t: 1.0, t_end, dt)
        exact = np.array([closed_form(float(t)) for t in trace.time_s])
        errors.append(float(np.max(np.abs(trace.p_out_pa - exact))))
    assert errors[0] / errors[1] >= 8.0


def test_step_response_rejects_coarse_dt():
    model = archetype("A1011-00")
    with pytest.raises(UnstableStepError):
        step_response(model, None, np.ones(50), 1e-2)


def test_step_response_rejects_non_finite_inlet():
    model = archetype("A1011-00")
    inlet = np.ones(100)
    inlet[40] = np.nan
    with pytest.raises(ValueError, match="inlet contains non-finite samples"):
        step_response(model, None, inlet, 1.0 / model.sample_rate_hz)


@pytest.mark.parametrize("at_dt", [2.0, 2.5], ids=["node", "midpoint"])
def test_step_response_fn_rejects_a_non_finite_inlet_at_a_node_or_a_midpoint(at_dt):
    model = archetype("A1011-00")
    dt = 1.0 / model.sample_rate_hz

    def inlet(t):
        return math.nan if abs(t - at_dt * dt) < 0.1 * dt else 1.0

    with pytest.raises(ValueError, match="inlet contains non-finite samples"):
        step_response_fn(model, None, inlet, 10 * dt, dt)


@pytest.mark.parametrize("inlet", [np.ones(0), np.ones((2, 2))])
def test_step_response_rejects_a_drive_it_cannot_hold(inlet):
    model = archetype("A1011-00")
    with pytest.raises(ValueError):
        step_response(model, None, inlet, 1.0 / model.sample_rate_hz)


def test_sweep_finds_randomized_resonances_within_two_percent():
    rng = np.random.default_rng(11)
    for k in range(12):
        f_mid = float(rng.uniform(150.0, 3000.0))
        xi = float(rng.uniform(0.03, 0.2))
        model = DpsModel(
            f"rand{k}", Transducer.CAPACITIVE, (-500.0, 500.0),
            (0.98 * f_mid, 1.02 * f_mid), damping_ratio=xi,
        )
        f_n = natural_resonant_hz(model)
        f_peak = f_n * math.sqrt(1.0 - 2.0 * xi * xi)
        result = frequency_sweep(model, None, 0.7 * f_n, 1.3 * f_n, f_n / 150.0)
        assert abs(result.center_hz - f_peak) <= 0.02 * f_n


def test_sweep_rejects_undamped_model():
    model = archetype("A1011-00").with_damping(0.0)
    with pytest.raises(ValueError):
        frequency_sweep(model, None, 500.0, 900.0, 10.0)


def test_sweep_rejects_a_grid_too_short_for_an_interior_peak():
    model = archetype("A1011-00").with_damping(0.05)
    with pytest.raises(ValueError, match="a 10 Hz step over 500-530 Hz gives 4 tones"):
        frequency_sweep(model, None, 500.0, 530.0, 10.0)
    assert frequency_sweep(model, None, 600.0, 800.0, 50.0).center_hz == 700.0


def test_sweep_reports_no_resonance_above_ceiling():
    model = archetype("NSCSS015PDUNV").with_damping(0.05)
    with pytest.raises(NoResonanceError):
        frequency_sweep(model, None, 50.0, 4000.0, 10.0)


def test_sweep_reports_no_resonance_on_flat_response():
    # critically damped response has no interior peak anywhere
    model = archetype("A1011-00")
    assert model.damping_ratio == 1.0
    with pytest.raises(NoResonanceError):
        frequency_sweep(model, None, 400.0, 900.0, 10.0)


# The prominence is the peak over the sweep's 25th-percentile response,
# so each message shows the floor to two decimals.
_NO_RESONANCE_MESSAGES = [
    # A maximally flat response far below resonance: the argmax wanders into
    # the interior, and only the prominence floor rejects it.
    (("A1011-00", 1.0 / math.sqrt(2.0), 0.001, 0.002, 1e-5),
     "A1011-00: no resonance between 0.001 and 0.002 Hz "
     "(peak index 63 of 101, prominence 1.00x)"),
    # A resonance above the band: a prominent peak, but at the last tone.
    (("NSCSS015PDUNV", 0.05, 50.0, 40_000.0, 10.0),
     "NSCSS015PDUNV: no resonance between 50 and 40000 Hz "
     "(peak index 3995 of 3996, prominence 3.68x)"),
]


@pytest.mark.parametrize("case, message", _NO_RESONANCE_MESSAGES, ids=["plateau", "boundary"])
def test_a_sweep_without_resonance_names_its_peak_and_prominence(case, message):
    part_id, damping, lo, hi, step = case
    with pytest.raises(NoResonanceError) as raised:
        frequency_sweep(archetype(part_id).with_damping(damping), None, lo, hi, step)
    assert str(raised.value) == message


# Sweep responses are magnitudes, so no -0.0: where a -0.0 and a 0.0 land
# among equal values is up to the partition, and numpy's partitions on
# other indices.
_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.0e-308, 1.0, 1.0 + 2.0**-52, 1e300, math.inf]),
    st.floats(min_value=0.0, allow_nan=False),
)
_SWEEP_RESPONSES = st.one_of(
    # Runs of one fill value with a few others among them: heavy ties and
    # constant arrays.
    arrays(np.float64, st.integers(sensor.MIN_SWEEP_TONES, 3000),
           elements=_MAGNITUDES, fill=_MAGNITUDES),
    # Every value drawn, so the two bracketing values differ and numpy's
    # two interpolation forms can round apart.
    arrays(np.float64, st.integers(sensor.MIN_SWEEP_TONES, 200),
           elements=_MAGNITUDES | st.floats(0.0, 10.0), fill=st.nothing()),
)


@settings(max_examples=300, deadline=None)
@given(values=_SWEEP_RESPONSES, nan_at=st.none() | st.floats(0.0, 1.0))
# Quartiles at t = 1/4 (6 tones) and t = 3/4 (8 tones) between values whose
# two interpolation forms round apart: numpy's 1.3625 against
# 1.3624999999999998, and numpy's 5.477499999999999 against 5.4775.
@example(values=np.array([0.0, 0.54, 3.83, 9.0, 9.0, 9.0]), nan_at=None)
@example(values=np.array([0.0, 2.35, 6.52, 9.0, 9.0, 9.0, 9.0, 9.0]), nan_at=None)
def test_the_sweep_floor_is_numpys_25th_percentile_bit_for_bit(values, nan_at):
    if nan_at is not None:
        values[int(nan_at * (values.size - 1))] = math.nan
    with np.errstate(invalid="ignore"):  # numpy's lerp of inf and inf
        expected = float(np.percentile(values, 25.0))
    got = sensor._lower_quartile(values)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)


def test_archetype_catalog_contents():
    catalog = load_archetypes()
    assert len(catalog) == 8
    assert set(catalog) >= {"A1011-00", "SDP810-500PA", "TBPDPNS100PGUCV"}
    for model in catalog.values():
        assert model.damping_ratio == 1.0
        assert model.reading_gain > 0.0
    with pytest.raises(KeyError):
        archetype("NOT-A-PART")


def test_archetype_override_via_env(tmp_path, monkeypatch):
    custom = tmp_path / "catalog.yaml"
    custom.write_text(
        "defaults:\n"
        "  damping_ratio: 0.5\n"
        "sensors:\n"
        "  - part_id: X1\n"
        "    transducer: capacitive\n"
        "    pressure_range_pa: [-100, 100]\n"
        "    resonant_band_hz: [400, 420]\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("NPRSIM_ARCHETYPES", str(custom))
    catalog = load_archetypes()
    assert set(catalog) == {"X1"}
    assert catalog["X1"].damping_ratio == 0.5
    assert natural_resonant_hz(catalog["X1"]) == pytest.approx(410.0)


def test_a_lookup_after_the_first_load_walks_no_path(monkeypatch):
    monkeypatch.delenv("NPRSIM_ARCHETYPES", raising=False)
    load_archetypes()

    def walk(self, strict=False):
        raise AssertionError(f"Path.resolve({self}) called on a cached lookup")

    monkeypatch.setattr(Path, "resolve", walk)
    assert archetype("A1011-00").part_id == "A1011-00"


def test_a_relative_table_path_follows_the_working_directory(tmp_path, monkeypatch):
    for name in ("XA", "XB"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "catalog.yaml").write_text(
            _X1.replace("part_id: X1", f"part_id: {name}"), encoding="utf-8")
    monkeypatch.setenv("NPRSIM_ARCHETYPES", "catalog.yaml")
    for name in ("XA", "XB"):
        monkeypatch.chdir(tmp_path / name)
        assert set(load_archetypes()) == {name}


_X1 = ("sensors:\n  - part_id: X1\n    transducer: capacitive\n"
       "    pressure_range_pa: [-100, 100]\n    resonant_band_hz: [400, 420]\n")


# Each table's first problem, on its line; a key from defaults is reported
# where defaults gives it.
@pytest.mark.parametrize("text, message", [
    ("defaults:\n  cavity_volume_m3: 1.0e-4\n" + _X1,
     "line 2: archetypes.defaults.cavity_volume_m3: unknown key"),
    (_X1 + "    damping_ratio: high\n", "line 6: archetypes.sensors[0].damping_ratio: expected number"),
    (_X1.replace("capacitive", "optical"),
     "line 3: archetypes.sensors[0].transducer: expected one of ['capacitive', "),
    (_X1.replace("capacitive", "[1]"), "line 3: archetypes.sensors[0].transducer: expected one of "),
    (_X1 + "    1: 2\n    extra: 3\n", "line 6: mapping keys must be strings, got 1"),
    (_X1.replace("[400, 420]", "[400, 410, 420]"),
     "line 5: archetypes.sensors[0].resonant_band_hz: expected [low_hz, high_hz]"),
    (_X1.replace("part_id: X1\n    ", ""), "line 2: archetypes.sensors[0].part_id: required key missing"),
    (_X1.replace("[400, 420]", "[420, 400]"),
     "line 2: archetypes.sensors[0]: X1: resonant band must be positive"),
    ("sensors: [5]\n", "sensors: expected a list of at least one sensor mapping"),
    ("defaults: [1]\n" + _X1, "line 1: archetypes.defaults: expected map"),
    ("sensors: [\n", "catalog.yaml: line "),  # in the YAML parser's words
    # Each of these loaded, or failed without a file or a line.
    (_X1 + "    resonant_band_hz: [1780, 1800]\n", "line 6: duplicate key 'resonant_band_hz'"),
    (_X1 + "    sample_rate_hz: " + "9" * 5000 + "\n", "line 6: integer literal of more than 4300 digits"),
    (_X1.replace("[400, 420]", "[400, .inf]"),
     "line 5: archetypes.sensors[0].resonant_band_hz: must be finite"),
    ("defaults:\n  damping_ratio: high\n" + _X1 + "    damping_ratio: 0.5\n",
     "line 2: archetypes.defaults.damping_ratio: expected number"),
    (_X1 + _X1.removeprefix("sensors:\n"), "line 6: archetypes.sensors[1].part_id: duplicate part id X1"),
    (_X1 + "bogus: 1\n", "line 6: archetypes.bogus: unknown key"),
    # Keys the loader keeps each mapping's lines under.
    ("__line__: 1\n" + _X1, "line 1: reserved key '__line__'"),
    (_X1 + "    __lines__: {part_id: 9}\n", "line 6: reserved key '__lines__'"),
    ("sensors: []\n", "line 1: archetypes.sensors: expected a list of at least one sensor mapping"),
])
def test_a_malformed_archetype_table_is_one_error_naming_the_file(text, message, tmp_path,
                                                                   monkeypatch):
    custom = tmp_path / "catalog.yaml"
    custom.write_text(text, encoding="utf-8")
    monkeypatch.setenv("NPRSIM_ARCHETYPES", str(custom))
    with pytest.raises(ValueError) as info:
        load_archetypes()
    assert re.match(rf"{re.escape(str(custom))}: line \d+: ", str(info.value))
    assert message in str(info.value) and "\n" not in str(info.value)


def test_tube_assembly_validation():
    with pytest.raises(ValueError):
        TubeAssembly(length_m=-0.1)
    with pytest.raises(ValueError):
        TubeAssembly(length_m=1.0, inner_diameter_m=0.0)
    tube = TubeAssembly(length_m=1.0, inner_diameter_m=0.008)
    assert tube.cross_section_m2 == pytest.approx(math.pi * 0.008**2 / 4.0)
    assert TubeAssembly(length_m=0.0).is_bare_port


def test_with_damping_replaces_only_damping():
    model = archetype("A1011-00")
    light = model.with_damping(0.05)
    assert light.damping_ratio == 0.05
    assert light.resonant_band_hz == model.resonant_band_hz
    assert natural_resonant_hz(light) == natural_resonant_hz(model)
    with pytest.raises(ValueError):
        model.with_damping(-0.1)


def test_non_finite_fields_are_rejected_at_construction():
    model = archetype("A1011-00")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TubeAssembly(length_m=bad)
        with pytest.raises(ValueError, match="finite"):
            TubeAssembly(length_m=1.0, inner_diameter_m=bad)
        with pytest.raises(ValueError, match="finite"):
            model.with_damping(bad)
        with pytest.raises(ValueError, match="finite"):
            DpsModel("X", Transducer.CAPACITIVE, (-bad, 500.0), (400.0, 420.0))


# ------------------------------------------------------------ shared RK4 core

# A sensor archetype, its damping, an optional tube, and a step between
# 1/4 and 1 of the coarsest one step_response accepts.
_systems = st.tuples(
    st.sampled_from(sorted(load_archetypes())),
    st.floats(0.05, 1.0),
    st.sampled_from((None, 0.5, 2.0)),
    st.floats(0.25, 1.0),
)


def _build(system):
    part, xi, length, dt_frac = system
    model = archetype(part).with_damping(xi)
    tube = None if length is None else TubeAssembly(length_m=length)
    dt = dt_frac / (MIN_SAMPLES_PER_PERIOD * system_resonant_hz(model, tube))
    return model, tube, dt


_inlets = arrays(np.float64, 64, elements=st.floats(-1e3, 1e3))


@settings(max_examples=40, deadline=None)
@given(_systems, _inlets, _inlets, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_step_response_is_linear_and_superposes(system, x, y, a, b):
    model, tube, dt = _build(system)
    combined = step_response(model, tube, a * x + b * y, dt)
    px = step_response(model, tube, x, dt)
    py = step_response(model, tube, y, dt)
    scale = 1e3 * (abs(a) + abs(b)) + 1.0
    np.testing.assert_allclose(combined.p_out_pa, a * px.p_out_pa + b * py.p_out_pa,
                               rtol=0.0, atol=1e-9 * scale)
    assert combined.p_out_pa[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(_systems, st.floats(-1e4, 1e4).filter(lambda c: abs(c) > 1e-3))
def test_step_response_has_unit_dc_gain(system, level):
    model, tube, dt = _build(system)
    omega = 2.0 * math.pi * system_resonant_hz(model, tube)
    # The slowest transient decays as exp(-xi*omega*t); 50 time constants
    # leave less than 1e-21 of it.
    n = int(50.0 / (model.damping_ratio * omega * dt)) + 1
    trace = step_response(model, tube, np.full(n, level), dt)
    assert trace.p_out_pa[-1] == pytest.approx(level, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(_systems, st.floats(-1e3, 1e3), st.floats(-1e5, 1e5))
def test_sampled_and_callable_inlets_agree_on_an_affine_inlet(system, offset, slope):
    # On an affine inlet the neighbor average is the exact midpoint, so the
    # two paths differ only by rounding.
    model, tube, dt = _build(system)
    n = 200
    sampled = step_response(model, tube, offset + slope * dt * np.arange(n), dt)
    called = step_response_fn(model, tube, lambda t: offset + slope * t, (n - 1) * dt, dt)
    scale = abs(offset) + abs(slope) * n * dt + 1.0
    np.testing.assert_allclose(called.p_out_pa, sampled.p_out_pa, rtol=0.0, atol=1e-10 * scale)
    np.testing.assert_allclose(called.time_s, sampled.time_s, rtol=0.0, atol=0.0)


def _whole_inlet_drives(subject, system, damping, n, seed):
    """(drive, lfilter reference) of subject over an n-sample inlet drawn
    from seed, whose first sample is not zero."""
    part, _xi, length, dt_frac = system
    model, tube, dt = _build((part, damping, length, dt_frac))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    if subject == "step_response":
        return step_response(model, tube, x, dt).p_out_pa, lfilter_reference.step_response(
            model, tube, x, dt)
    if subject == "step_response_fn":
        # A smooth inlet: an offset and three tones below the resonance.
        f_sys = system_resonant_hz(model, tube)
        tones = [(rng.normal(), rng.uniform(0.05, 1.0) * f_sys, rng.uniform(0.0, 2.0 * math.pi))
                 for _ in range(3)]

        def inlet(t):
            return x[0] + sum(a * math.sin(2.0 * math.pi * f * t + phase) for a, f, phase in tones)
        return (step_response_fn(model, tube, inlet, (n - 1) * dt, dt).p_out_pa,
                lfilter_reference.step_response_fn(model, tube, inlet, (n - 1) * dt, dt))
    # A cutoff from 100 Hz to 20 kHz at 48 kHz, one to three sections.
    cutoff_hz, order = float(rng.uniform(100.0, 20_000.0)), int(rng.integers(1, 4))
    if subject == "apply_lpf":
        return apply_lpf(x, cutoff_hz, 1.0 / 48_000), lfilter_reference.lpf_cascade(
            x, cutoff_hz, 1.0 / 48_000)
    return (lpf_cascade(x, cutoff_hz, 1.0 / 48_000, order),
            lfilter_reference.lpf_cascade(x, cutoff_hz, 1.0 / 48_000, order))


@pytest.mark.parametrize("subject", ["step_response", "step_response_fn", "apply_lpf",
                                     "lpf_cascade"])
@settings(max_examples=30, deadline=None)
@given(system=_systems, damping=st.sampled_from([1.0, 0.05, 0.01]),
       n=st.sampled_from([1, _DRIVE_SAMPLES - 1, _DRIVE_SAMPLES, _DRIVE_SAMPLES + 1, 3_000]),
       seed=st.integers(0, 2**32 - 1))
def test_the_whole_inlet_drives_meet_the_lfilter_reference(subject, system, damping, n, seed):
    """Inlets of one sample, of one block and a sample either side, and of
    many blocks: each drive meets lfilter within 1e-12 of the reference's
    largest magnitude, or 5e-12 at a damping of 0.01, where lfilter's own
    rounding drifts furthest from the recurrence."""
    got, expected = _whole_inlet_drives(subject, system, damping, n, seed)
    rel = 1e-12 if damping > 0.01 else 5e-12
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=rel * np.max(np.abs(expected)))


@settings(max_examples=30, deadline=None)
@given(size=st.integers(1, 3), n=st.integers(1, 6000), band=st.floats(0.01, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_a_step_leaves_its_band_last_where_a_sample_loop_finds(size, n, band, seed):
    """step_last_outside on contracting chains of one to three states, whose
    step settles anywhere, inside the band around 1 or not: the blocked
    drive and its repeat rule give the index a loop over the samples does."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (size, size))
    a *= rng.uniform(0.1, 0.95) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-12)
    chain = LinearChain(a=a, b=rng.normal(size=size), c=rng.normal(size=(1, size)),
                        d=rng.normal(size=1), first=rng.normal(size=size))
    state, last = chain.first.copy(), -1
    for k in range(n):
        if abs(chain.c[0] @ state + chain.d[0] - 1.0) >= band:
            last = k
        state = chain.a @ state + chain.b
    assert step_last_outside(chain, n, band) == last


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 3), outputs=st.integers(1, 2), block=st.integers(1, 70),
       n=st.integers(1, 300), started=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_a_blocked_drive_is_the_sample_loop(size, outputs, block, n, started, seed):
    """_Tables.zero_state on contracting chains of one to three states and
    one or two outputs, in blocks of any length, from rest or from a given
    state: the outputs and the state after the last sample are those a
    loop over the samples gives."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (size, size))
    a *= rng.uniform(0.1, 0.95) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-12)
    chain = LinearChain(a=a, b=rng.normal(size=size), c=rng.normal(size=(outputs, size)),
                        d=rng.normal(size=outputs), first=np.zeros(size))
    x = rng.normal(size=n)
    start = rng.normal(size=size) if started else None
    state, expected = np.zeros(size) if start is None else start.copy(), []
    for sample in x:
        expected.append(chain.c @ state + chain.d * sample)
        state = chain.a @ state + chain.b * sample
    got, end = sensor._Tables(chain, block).zero_state(x, start)
    scale = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=scale)
    np.testing.assert_allclose(end, state, rtol=0.0, atol=scale)


@pytest.mark.parametrize("n", [2048, 4097, 4098, 6000])
def test_a_step_whose_block_repeats_leaves_its_band_last_in_the_final_repeat(n):
    """A swap of two states repeats every two samples, so the first block
    ends where it started while its output alternates in and out of the
    band: the last sample out lies in the final, possibly cut, repeat or
    the one before it."""
    chain = LinearChain(a=np.array([[0.0, 1.0], [1.0, 0.0]]), b=np.zeros(2),
                        c=np.array([[1.0, 0.0]]), d=np.zeros(1), first=np.array([1.0, 2.0]))
    # Samples k = 0, 2, 4, ... read 1.0, inside the band; the odd ones 2.0.
    assert step_last_outside(chain, n, 0.05) == n - 1 - n % 2


def test_sweep_gain_matches_a_long_tone_run():
    """The closed-form sweep gain is what a time-domain tone run settles to."""
    model = archetype("A1011-00").with_damping(0.1)
    f_n = natural_resonant_hz(model)
    hi = 1.3 * f_n
    sweep = frequency_sweep(model, None, 0.7 * f_n, hi, f_n / 150.0)
    dt = 1.0 / (25.0 * hi)  # the sweep's own step for this grid
    omega = 2.0 * math.pi * f_n
    settle_s = 50.0 / (model.damping_ratio * omega)
    # below, at and above the resonance
    for index in (5, 45, 85):
        f = float(sweep.frequencies_hz[index])
        w = 2.0 * math.pi * f
        duration = settle_s + 3.0 / f
        # cos and sin inlets give the real and imaginary parts of the steady
        # phasor, so their hypotenuse is the gain at every sample.
        cos_run = step_response_fn(model, None, lambda t: math.cos(w * t), duration, dt)
        sin_run = step_response_fn(model, None, lambda t: math.sin(w * t), duration, dt)
        settled = cos_run.time_s >= settle_s
        magnitude = np.hypot(cos_run.p_out_pa[settled], sin_run.p_out_pa[settled])
        gain = float(sweep.peak_responses_pa[index])
        assert np.max(np.abs(magnitude - gain)) <= 1e-9 * gain
