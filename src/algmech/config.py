"""JSON run configurations: schema, validation, scenario construction.

A run config is one JSON document::

    {
      "scenario":     { "kind": ..., ...parameters as field objects... },
      "integration":  { "h": ..., "steps": ..., "x0": {"q": [...], "p": [...]} },
      "verification": { "points": K, "seed": N,
                        "tolerances": {"analytic": 1e-9, "fd": 1e-5},
                        "checks": ["name", {"name": ..., "expect_fail": true, ...}] },
      "output":       { "trajectory": "path.csv", "report": "path.json" }
    }

Polynomial fields are ``{"arity": n, "terms": [{"coef": c, "exp": [...]}]}``;
plain numbers are constants where an arity is implied by context.  Validation
errors name the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .algebroid import AlgebroidStructure, so3_constants
from .connections import ConnectionPair, default_split
from .errors import InputError
from .fields import (
    MAX_COUNT, TensorField, field_from_config_with_arity, is_finite_number, tensor_from_config,
)
from .hamiltonian import PhasePoint
from .scenarios import (
    ConstraintSpec,
    ScenarioBundle,
    build_canonical,
    build_constrained,
    build_contorsion,
    build_gradient_extension,
    build_lie_poisson,
    euler_top_hamiltonian,
    so3_casimir,
)


@dataclass
class RunConfig:
    scenario: dict
    integration: dict | None
    verification: dict | None
    output: dict


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # also an integer of more digits than Python parses
        raise InputError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    if "scenario" not in raw:
        raise InputError("config missing 'scenario'")
    for key in ("integration", "verification", "output"):
        if raw.get(key) is not None and not isinstance(raw[key], dict):
            raise InputError(f"{key} must be an object")
    cfg = RunConfig(
        scenario=raw["scenario"],
        integration=raw.get("integration"),
        verification=raw.get("verification"),
        output=raw.get("output") or {},
    )
    for key, value in cfg.output.items():
        if value is not None and not isinstance(value, str):  # null: the default path
            raise InputError(f"output.{key} must be a string")
    if cfg.integration is not None:
        _validate_integration(cfg.integration)
    if cfg.verification is not None:
        _validate_verification(cfg.verification)
    return cfg


def _validate_integration(icfg):
    if "h" not in icfg:
        raise InputError("integration.h is required")
    h = icfg["h"]
    if not (is_finite_number(h) and h > 0):
        raise InputError("integration.h must be positive and finite")
    _check_count(icfg.get("steps"), "integration.steps")
    _check_x0(icfg.get("x0"), "integration.x0")


def _check_count(value, key, low=1, most=MAX_COUNT):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InputError(f"{key} must be an integer >= {low}")
    if value > most:  # by default, the longest array axis
        raise InputError(f"{key} is too large: no array holds more than {most} entries")


def _check_positive(value, key):
    # a NaN tolerance fails every comparison and would pass a negative control
    if not (is_finite_number(value) and value > 0):
        raise InputError(f"{key} must be a finite number > 0")


def _check_vector(value, key):
    if not (isinstance(value, list) and all(map(is_finite_number, value))):
        raise InputError(f"{key} must be a list of finite numbers")


def _check_x0(x0, key):
    if not isinstance(x0, dict) or "q" not in x0 or "p" not in x0:
        raise InputError(f"{key} must be an object with 'q' and 'p'")
    _check_vector(x0["q"], f"{key}.q")
    _check_vector(x0["p"], f"{key}.p")


def check_seed(value, key):
    """A seed is an integer >= 0 of any size (not a bool: ``true`` would read as 1)."""
    _check_count(value, key, low=0, most=math.inf)


def _validate_verification(vcfg):
    _check_count(vcfg.get("points", 1), "verification.points")
    check_seed(vcfg.get("seed", 0), "verification.seed")
    tolerances = vcfg.get("tolerances") or {}
    if not isinstance(tolerances, dict):
        raise InputError("verification.tolerances must be an object")
    for cls, value in tolerances.items():
        _check_positive(value, f"verification.tolerances.{cls}")
    checks = vcfg.get("checks", [])
    if not isinstance(checks, list):
        raise InputError("verification.checks must be a list")
    for pos, entry in enumerate(checks):
        if isinstance(entry, str):
            continue
        if not (isinstance(entry, dict) and "name" in entry):
            raise InputError("verification.checks entries must be names or objects with 'name'")
        key = f"verification.checks[{pos}]"
        if not isinstance(entry["name"], str):
            raise InputError(f"{key}.name must be a string")
        for name, check in (
            ("points", _check_count),
            ("steps", _check_count),
            ("random_instances", _check_count),
            ("tolerance", _check_positive),
            ("h", _check_positive),
            ("x0", _check_x0),
            ("q0", _check_vector),
            ("v0", _check_vector),
        ):
            if name in entry:
                check(entry[name], f"{key}.{name}")


def initial_point(icfg, bundle: ScenarioBundle) -> PhasePoint:
    x0 = icfg["x0"]
    q = np.asarray(x0["q"], dtype=float)
    p = np.asarray(x0["p"], dtype=float)
    if q.shape[0] != bundle.algebroid.n:
        raise InputError("integration.x0.q has the wrong length for the scenario")
    if p.shape[0] != bundle.algebroid.m:
        raise InputError("integration.x0.p has the wrong length for the scenario")
    return PhasePoint(q, p)


# -- scenario construction ----------------------------------------------------


def _monitors_from(cfg, arity):
    monitors = cfg.get("monitors") or {}
    if not isinstance(monitors, dict):
        raise InputError("scenario.monitors must be an object of named fields")
    for name in monitors:
        if any(c in name for c in ",\n\r"):
            raise InputError(f"scenario.monitors: name {name!r} has a ',' or a line break")
    return {
        name: field_from_config_with_arity(obj, arity, f"scenario.monitors.{name}")
        for name, obj in monitors.items()
    }


def _square_rank(cfg, key):
    """The size n of the [n, n] array ``scenario.<key>``."""
    value = cfg[key]
    if not isinstance(value, list):
        raise InputError(f"scenario.{key} must be an [n,n] array")
    return len(value)


def _build_canonical(cfg):
    n = cfg.get("n")
    _check_count(n, "scenario.n")
    if "hamiltonian" not in cfg:
        raise InputError("scenario.hamiltonian is required for kind 'canonical'")
    H = field_from_config_with_arity(cfg["hamiltonian"], 2 * n, "scenario.hamiltonian")
    return build_canonical(n, H, monitors=_monitors_from(cfg, 2 * n)), None


def _build_lie_poisson(cfg):
    structure = cfg.get("structure")
    if structure == "so3":
        C = so3_constants()
    elif isinstance(structure, list) and structure:
        m = len(structure)
        C = tensor_from_config(structure, (m, m, m), 0, key="scenario.structure")
        C = C.eval(np.zeros(0))
    else:
        raise InputError("scenario.structure must be 'so3' or an [m,m,m] array")
    m = C.shape[0]
    monitors = _monitors_from(cfg, m)
    if "inertia" in cfg:
        _check_vector(cfg["inertia"], "scenario.inertia")
        if len(cfg["inertia"]) != m:
            raise InputError("scenario.inertia length must equal the structure rank")
        try:
            H = euler_top_hamiltonian(cfg["inertia"])
        except InputError as exc:  # H's 1/(2 I)
            raise InputError(f"scenario.{exc}") from None
    elif "hamiltonian" in cfg:
        H = field_from_config_with_arity(cfg["hamiltonian"], m, "scenario.hamiltonian")
    else:
        raise InputError("scenario needs 'hamiltonian' or 'inertia'")
    if structure == "so3" and "casimir" not in monitors:
        monitors["casimir"] = so3_casimir()
    metric = None
    if cfg.get("metric") is not None:
        metric = tensor_from_config(cfg["metric"], (m, m), 0, key="scenario.metric")
        metric = metric.eval(np.zeros(0))
    return build_lie_poisson(C, H, metric=metric, monitors=monitors), None


def _build_gradient_extension(cfg):
    if "metric" not in cfg or "vector_field" not in cfg:
        raise InputError("scenario needs 'metric' and 'vector_field'")
    n = _square_rank(cfg, "metric")
    G = tensor_from_config(cfg["metric"], (n, n), n, key="scenario.metric")
    X = tensor_from_config(cfg["vector_field"], (n,), n, key="scenario.vector_field")
    return build_gradient_extension(G, X), None


def _ambient_from(cfg):
    amb = cfg.get("ambient")
    if not isinstance(amb, dict):
        raise InputError("scenario.ambient must be an object")
    n, m = amb.get("n"), amb.get("m")
    _check_count(n, "scenario.ambient.n", low=0)
    _check_count(m, "scenario.ambient.m")
    bracket = tensor_from_config(
        amb.get("bracket", []), (m, m, m), n, key="scenario.ambient.bracket"
    )
    anchor = tensor_from_config(amb.get("anchor", []), (n, m), n, key="scenario.ambient.anchor")
    return AlgebroidStructure(
        n=n, m=m, bracket=bracket, anchor_left=anchor, anchor_right=anchor
    )


def _basis_rows(cfg, key, M, arity):
    """The [k, M] basis ``scenario.<key>``, k >= 1 rows."""
    obj = cfg.get(key)
    if not isinstance(obj, list) or not obj:
        raise InputError(f"scenario.{key} must be a non-empty list of rows")
    return tensor_from_config(obj, (len(obj), M), arity, key=f"scenario.{key}")


def _build_constrained(cfg, generalized):
    ambient = _ambient_from(cfg)
    M, n = ambient.m, ambient.n
    if "metric" not in cfg:
        raise InputError("scenario.metric is required")
    G = tensor_from_config(cfg["metric"], (M, M), n, key="scenario.metric")
    kin = _basis_rows(cfg, "kinematic_basis", M, n)
    var = _basis_rows(cfg, "variational_basis", M, n) if generalized else None
    V = None
    if cfg.get("potential") is not None:
        V = field_from_config_with_arity(cfg["potential"], n, "scenario.potential")
    spec = ConstraintSpec(
        ambient=ambient,
        metric=G,
        kinematic_basis=kin,
        variational_basis=var,
        potential=V,
    )
    return build_constrained(spec), spec


def _build_contorsion(cfg):
    if "metric" not in cfg:
        raise InputError("scenario.metric is required")
    n = _square_rank(cfg, "metric")
    G = tensor_from_config(cfg["metric"], (n, n), n, key="scenario.metric")
    S = T = None
    if "contorsion" in cfg:
        S = tensor_from_config(cfg["contorsion"], (n, n, n), n, key="scenario.contorsion")
    if "torsion" in cfg:
        T = tensor_from_config(cfg["torsion"], (n, n, n), n, key="scenario.torsion")
    V = None
    if cfg.get("potential") is not None:
        V = field_from_config_with_arity(cfg["potential"], n, "scenario.potential")
    return build_contorsion(G, S=S, T=T, V=V), None


_BUILDERS = {
    "canonical": _build_canonical,
    "lie_poisson": _build_lie_poisson,
    "gradient_extension": _build_gradient_extension,
    "constrained": lambda cfg: _build_constrained(cfg, generalized=False),
    "generalized_constrained": lambda cfg: _build_constrained(cfg, generalized=True),
    "contorsion": _build_contorsion,
}


def build_scenario(cfg: dict):
    """Scenario config -> (ScenarioBundle, ConstraintSpec | None).

    The family name lives under the ``scenario`` key (``kind`` is accepted
    as an alias).
    """
    if not isinstance(cfg, dict):
        raise InputError("scenario must be an object")
    kind = cfg.get("scenario", cfg.get("kind"))
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise InputError(
            f"scenario.scenario must be one of {sorted(_BUILDERS)}, got {kind!r}"
        )
    bundle, spec = _BUILDERS[kind](cfg)
    bundle = _apply_overrides(bundle, cfg)
    return bundle, spec


def _apply_overrides(bundle: ScenarioBundle, cfg) -> ScenarioBundle:
    """Optional 'curvature' / 'split' overrides on top of the built scenario.

    Curvature: 'zero', 'scenario' (keep the builder's choice) or an explicit
    [m,m,m,m] tensor.  Split: 'default' (zero-reference), 'scenario', or an
    explicit pair {"Dl": ..., "Dr": ...}; explicit pairs are validated
    against the bracket when the lifted structure is first built.
    """
    curv = cfg.get("curvature")
    split = cfg.get("split")
    A = bundle.algebroid
    new_curv = bundle.curvature
    if curv == "zero":
        new_curv = TensorField.zeros((A.m,) * 4, A.n)
    elif isinstance(curv, list):
        new_curv = tensor_from_config(curv, (A.m,) * 4, A.n, key="scenario.curvature")
    elif curv not in (None, "scenario"):
        raise InputError(
            "scenario.curvature must be 'zero', 'scenario' or an [m,m,m,m] tensor"
        )
    new_split = bundle.split
    if split == "default":
        new_split = default_split(A)
    elif isinstance(split, dict):
        if "Dl" not in split or "Dr" not in split:
            raise InputError("scenario.split pair needs 'Dl' and 'Dr' tensors")
        new_split = ConnectionPair(
            Dl=tensor_from_config(split["Dl"], (A.m, A.m, A.m), A.n, key="scenario.split.Dl"),
            Dr=tensor_from_config(split["Dr"], (A.m, A.m, A.m), A.n, key="scenario.split.Dr"),
        )
    elif split not in (None, "scenario"):
        raise InputError(
            "scenario.split must be 'default', 'scenario' or a {'Dl','Dr'} pair"
        )
    if new_curv is bundle.curvature and new_split is bundle.split:
        return bundle  # nothing changed: keep the builder's one-evaluation lifted base
    return ScenarioBundle(
        algebroid=A,
        hamiltonian=bundle.hamiltonian,
        split=new_split,
        curvature=new_curv,
        monitors=bundle.monitors,
    )
