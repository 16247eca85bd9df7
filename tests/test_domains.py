"""The domain table against the scenario sections, and a seeded scenario fuzz."""

import math
import random
from dataclasses import fields

from cdss_sim.domains import DOMAINS
from cdss_sim.engine import RunSpec, run_and_write
from cdss_sim.errors import ConfigurationError
from cdss_sim.scenario import default_scenario, parse_scenario

DEFAULT = default_scenario()
NUMERIC_TYPES = ("int", "float", "Tuple[Tuple[float, float], ...]")
# a 30-epoch run with six controller periods after the warmup
SHORT = {("sim", "total_s"): 0.3, ("sim", "warmup_s"): 0.1, ("cdss", "period_s"): 0.05}


def test_every_numeric_field_has_one_domain_row():
    # a numeric field added later cannot go unchecked, and no row names a
    # field that is gone
    numeric = {(section.name, f.name) for section in fields(DEFAULT)
               for f in fields(getattr(DEFAULT, section.name)) if f.type in NUMERIC_TYPES}
    assert sorted(DOMAINS) == sorted(numeric)


def probe_values(key):
    """Each finite edge and the value just outside it, then 0, -1, huge and
    tiny values; ints step by 1 and also get 10**400."""
    lo, hi, *_ = DOMAINS[key]
    is_int = isinstance(getattr(getattr(DEFAULT, key[0]), key[1]), int)
    values = []
    for edge, away in ((lo, -math.inf), (hi, math.inf)):
        if math.isfinite(edge):
            values += [edge, edge + (1 if away > 0 else -1) if is_int
                       else math.nextafter(edge, away)]
    values += [0, -1, 1e300, 1.7e308, 1e-300, 5e-324]
    return values + [10**400] if is_int else values


def inside(key, value):
    lo, hi, *lo_open = DOMAINS[key]
    return ((lo < value if lo_open else lo <= value) and value <= hi
            and (not isinstance(value, float) or math.isfinite(value)))


def scenario_text(overrides):
    values = {**SHORT, **overrides}
    sections = {}
    for (section, key), value in values.items():
        text = repr(value)
        if key == "beam_centers_m":         # into the first beam's x
            pairs = [(value, DEFAULT.topology.beam_centers_m[0][1])]
            pairs += DEFAULT.topology.beam_centers_m[1:]
            text = "; ".join(f"{x!r}, {y!r}" for x, y in pairs)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def test_scenario_fuzz_rejects_or_runs_to_finite_outputs(tmp_path):
    # Every probe value of every row alone, then seeded pairs.  A scenario
    # is rejected with a ConfigurationError, naming the key when one value
    # lies outside its row, or a short run writes only finite numbers.
    rng = random.Random(1010)
    keys = sorted(DOMAINS)
    draws = [{key: value} for key in keys for value in probe_values(key)]
    for _ in range(150):
        draws.append({key: rng.choice(probe_values(key)) for key in rng.sample(keys, 2)})
    runs = 0
    for i, overrides in enumerate(draws):
        try:
            cfg = parse_scenario(scenario_text(overrides))
        except ConfigurationError as exc:
            if len(overrides) == 1:
                [(key, value)] = overrides.items()
                if not inside(key, value):
                    assert str(exc).startswith(f"[{key[0]}] {key[1]}"), (overrides, str(exc))
            continue
        store, files = run_and_write(RunSpec(cfg, rng.choice((2, 4)), 1), tmp_path / str(i))
        assert math.isfinite(store.total_rx_bytes()), overrides
        for path in files.values():
            text = path.read_text().lower()
            assert "nan" not in text and "inf" not in text, (overrides, path.name)
        runs += 1
    assert runs >= 100, runs
