"""Run configuration, and the one INI reader behind run configs and scenario files.

A run config has the sections [calibration] (five parameters, or a
reference object to derive the magnifications), [loi] (pixel endpoints
plus optional direction), [tracking], [measure] and [io]. `parse_config`
reads the file over `DEFAULT_CONFIG`, which `print-config` emits verbatim
and whose [tracking] values are formatted from `TrackerConfig()`, so each
default is written once. `read_ini`, the getter `ini_value` and the section
readers also read `synth` scenario files. The reader only converts text;
the types that own the values check their ranges. Every error names the
file, the section and the key.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .calib import CalibrationParams, ReferenceObject, derive_magnification
from .errors import ValidationError, positive, require
from .tracker import TrackerConfig
from .traffic import LineOfInterest, interval_count, loi_to_world

DEFAULT_CONFIG = """\
[calibration]
# direct parameters: magnifications, skew angle (degrees), reference point (m)
phi = 1.0
omega = 1.0
delta_deg = 90.0
x0 = 0.0
y0 = 0.0
# or derive phi/omega from a reference object of known ground size:
# ref_true_x_m = 26.8224
# ref_true_y_m = 26.8224
# ref_apparent_x_px = 880.0
# ref_apparent_y_px = 880.0

[loi]
# counting line endpoints, drawn in pixel coordinates on the frame
ax_px = 0.0
ay_px = 500.0
bx_px = 1920.0
by_px = 500.0
# +1 / -1 to count one crossing direction only; blank counts both
direction =

[tracking]
""" + "".join(f"{k} = {v}\n" for k, v in asdict(TrackerConfig()).items()) + """\
confidence_floor = 0.0

[measure]
interval_s = 60.0
fps = 25.0
# blank: derived from the last detection frame
duration_s =

[io]
tracks_name = tracks.txt
intervals_name = intervals.txt
"""

REQUIRED = object()


@contextmanager
def prefixed(prefix: str):
    """Put prefix before the message of a ValidationError raised inside."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{prefix} {exc}") from None


def read_ini(text: str, path: str, known: Optional[Mapping] = None,
             defaults: Optional[Mapping] = None):
    """A ConfigParser of text read over defaults (section -> key -> value text).

    known maps each section text may hold to the keys it may hold; a name
    ending in "." stands for every section named with that prefix, such as
    a scenario's [agent.1]. Any other section or key of text is rejected,
    so that a misspelt one cannot leave its setting at the default
    unnoticed. configparser's own errors, such as a duplicate key, say
    `'<path>' [line N]`.
    """
    ini = configparser.ConfigParser(interpolation=None)
    try:
        ini.read_string(text, source=path)
    except configparser.Error as exc:
        raise ValidationError(" ".join(str(exc).split())) from None
    if known is not None:
        # keys of [DEFAULT] show up in every section: check them first
        for section in [ini.default_section] + ini.sections():
            head, dot, _ = section.partition(".")
            allowed = known.get(section, known.get(head + dot) if dot else None)
            own = ini.defaults() if section == ini.default_section else ini[section]
            for key in own:
                if allowed is None or key not in allowed:
                    raise ValidationError(f"{path}: [{section}] {key}: unknown key")
            if allowed is None and section != ini.default_section:
                raise ValidationError(f"{path}: [{section}]: unknown section")
    for section, keys in (defaults or {}).items():
        if not ini.has_section(section):
            ini.add_section(section)
        for key, value in keys.items():
            ini[section].setdefault(key, value)
    return ini


def ini_value(ini, section: str, key: str, conv=float, default=REQUIRED):
    """conv of the key's text; a blank or absent key gives default, if it has one."""
    raw = ini.get(section, key, fallback="")
    if not raw:
        if default is REQUIRED:
            raise ValidationError(f"[{section}] {key}: required")
        return default
    try:
        return conv(raw)
    except ValueError:
        raise ValidationError(f"[{section}] {key}: bad value {raw!r}") from None


def read_section(ini, section: str, cls, **values):
    """cls from values and one key for each other field, named after it.

    An int field reads as int, any other as float. A blank or absent key
    keeps its field's default, and is required when the field has none.
    """
    for f in fields(cls):
        if f.name not in values:
            has_default = f.default is not MISSING or f.default_factory is not MISSING
            value = ini_value(ini, section, f.name, int if "int" in str(f.type) else float,
                              None if has_default else REQUIRED)
            if value is not None:
                values[f.name] = value
    with prefixed(f"[{section}]"):
        return cls(**values)


def read_calibration(ini) -> CalibrationParams:
    """[calibration]; a reference object, when given, sets phi and omega."""
    ref = {f.name: ini_value(ini, "calibration", "ref_" + f.name, default=None)
           for f in fields(ReferenceObject)}
    derived = {}
    if any(v is not None for v in ref.values()):
        with prefixed("[calibration]"):
            if None in ref.values():
                raise ValidationError("reference-object calibration needs all four ref_* keys")
            derived = dict(zip(("phi", "omega"), derive_magnification(ReferenceObject(**ref))))
    return read_section(ini, "calibration", CalibrationParams, **derived)


def read_loi(ini, calibration: CalibrationParams) -> LineOfInterest:
    """[loi]: pixel endpoints mapped to world coordinates, and the direction."""
    a, b = [(ini_value(ini, "loi", x), ini_value(ini, "loi", y))
            for x, y in (("ax_px", "ay_px"), ("bx_px", "by_px"))]
    direction = ini_value(ini, "loi", "direction", int, default=None)
    with prefixed("[loi]"):
        return loi_to_world((a, b), direction, calibration)


# section -> key -> default value text, as DEFAULT_CONFIG writes them
DEFAULTS = {s: dict(v) for s, v in read_ini(DEFAULT_CONFIG, "DEFAULT_CONFIG").items()
            if s != configparser.DEFAULTSECT}
# the sections and keys of a run config: DEFAULT_CONFIG's, and the
# reference-object keys it shows commented out
RUN_CONFIG_KEYS = {s: set(keys) for s, keys in DEFAULTS.items()}
RUN_CONFIG_KEYS["calibration"] |= {"ref_" + f.name for f in fields(ReferenceObject)}


@dataclass
class RunConfig:
    """One `track` run. `parse_config` fills every field, from DEFAULT_CONFIG
    where the file leaves a key out; errors name the file's sections."""

    calibration: CalibrationParams
    loi: LineOfInterest
    tracker: TrackerConfig
    confidence_floor: float
    interval_s: float
    fps: float
    duration_s: Optional[float]   # None: derived from the last detection frame
    tracks_name: str
    intervals_name: str

    def __post_init__(self):
        with prefixed("[tracking]"):
            require(self, "confidence_floor", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        with prefixed("[measure]"):
            require(self, "interval_s fps", positive, "finite and > 0")
            # a point's time is frame / fps: a frame period that overflows
            # would put every point at t = inf
            require(self, "fps", lambda v: positive(1.0 / v),
                    "large enough that the frame period 1 / fps is finite")
            if self.duration_s is not None:
                require(self, "duration_s", positive, "finite and > 0 when set")
                interval_count(self.interval_s, self.duration_s)
        if Path(self.tracks_name) == Path(self.intervals_name):
            raise ValidationError(f"[io] tracks_name and intervals_name must differ, both are "
                                  f"{self.tracks_name!r}")


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    """Run configuration from config text read over DEFAULT_CONFIG."""
    ini = read_ini(text, path, RUN_CONFIG_KEYS, DEFAULTS)
    with prefixed(f"{path}:"):
        calibration = read_calibration(ini)
        return RunConfig(
            calibration=calibration, loi=read_loi(ini, calibration),
            tracker=read_section(ini, "tracking", TrackerConfig),
            confidence_floor=ini_value(ini, "tracking", "confidence_floor"),
            interval_s=ini_value(ini, "measure", "interval_s"),
            fps=ini_value(ini, "measure", "fps"),
            duration_s=ini_value(ini, "measure", "duration_s", default=None),
            tracks_name=ini_value(ini, "io", "tracks_name", str),
            intervals_name=ini_value(ini, "io", "intervals_name", str),
        )


def default_config_text() -> str:
    return DEFAULT_CONFIG
