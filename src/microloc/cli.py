"""Command-line front end: analyze, scan, gabor-check, make-fixtures, selftest.

Parameters come from an optional JSON config file plus flags; flags win.
Every report echoes the effective configuration, with timestamps kept in a
separate `meta` block so payloads from identical runs compare byte-equal, and
is strict JSON: `_write_report` writes every non-finite float as text.

Exit codes: 0 success/conclusive, 1 error or failed check, 2 inconclusive
verdict (analyze).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MicrolocError
from .fixtures import random_band_limited, write_fixture_set
from .gabor import check_partition
from .selftest import SUITES, run_selftest, worst_roundtrip
from .seminorm import DEFAULT_K_LAST
from .signal import load_signal
from .validation import as_point, check_exponent, check_integer
from .wavefront import ScanConfig, _listed, check_equivalence, scan


# The settings the CLI shares with ScanConfig, by name and default; the
# other three ScanConfig fields have CLI spellings (pqs, shells, method).
_SharedSettings = make_dataclass(
    "_SharedSettings",
    [(f.name, f.type, field(default=f.default)) for f in fields(ScanConfig)
     if f.name not in ("pqs", "k_last", "methods")],
)


@dataclass
class RunConfig(_SharedSettings):
    """Effective parameters of one CLI invocation: the shared settings plus
    the keys only the CLI has."""

    signal: str | None = None
    q: float = 1.0
    p: float = 1.0
    s: float = 1.0
    shells: int = DEFAULT_K_LAST
    x0: list | None = None
    theta: list | None = None
    x_grid: list | None = None
    directions: list | None = None
    pqs: list | None = None
    d: int = 1
    method: str = "both"
    out: str | None = None
    seed: int = 0

    def scan_config(self) -> ScanConfig:
        """These parameters as a ScanConfig; building it checks them."""
        shared = {f.name: getattr(self, f.name) for f in fields(_SharedSettings)}
        return ScanConfig.from_settings(
            self.p, self.q, self.s, self.pqs, self.method, self.shells, **shared
        )


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"config file {path} has unknown keys {sorted(unknown)}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    for key, value in _load_config(getattr(args, "config", None)).items():
        setattr(cfg, key, value)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(cfg, f.name, flag)
    for name in ("q", "p"):
        setattr(cfg, name, check_exponent(getattr(cfg, name), name))
    check_integer(cfg.d, 1, "d")
    check_integer(cfg.seed, 0, "seed")
    for name in ("x0", "theta"):
        if getattr(cfg, name) is not None:
            as_point(getattr(cfg, name), name=name)
    for name, must in (("x_grid", "a list of points"), ("directions", "a list of vectors")):
        if getattr(cfg, name) is not None:
            for entry in _listed(getattr(cfg, name), f"{name} must be {must}"):
                as_point(entry, name=f"{name} entry")
    cfg.scan_config()
    return cfg


def _finite(obj):
    """obj with every non-finite float written as its repr ("inf", "-inf",
    "nan"), so a report is strict JSON; "inf" reads back as an exponent."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _write_report(cfg: RunConfig, result: dict, default_name: str) -> Path:
    payload = {
        "config": asdict(cfg),
        "meta": {
            "tool": "microloc",
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "result": result,
    }
    path = Path(cfg.out) if cfg.out else Path(default_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_finite(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    cfg = _merge_config(args)
    if cfg.signal is None:
        raise ValueError("analyze needs --signal (or `signal` in the config file)")
    f = load_signal(cfg.signal)
    x0 = cfg.x0 if cfg.x0 is not None else [0.0] * f.d
    theta = cfg.theta if cfg.theta is not None else [1.0] + [0.0] * (f.d - 1)
    scan_cfg = replace(cfg, pqs=None).scan_config()  # analyze asks its own (p, q, s)
    (rec,) = scan(f, [x0], [theta], scan_cfg).records
    if rec.error_fl or rec.error_mod:
        print(f"error: {rec.error_fl or rec.error_mod}", file=sys.stderr)
        return 1
    verdicts = {m: getattr(rec, f"verdict_{m}") for m in scan_cfg.methods}
    result = {"x0": list(map(float, x0)), "theta": list(map(float, theta))}
    result.update((m, v.to_json()) for m, v in verdicts.items())
    path = _write_report(cfg, result, "analyze_report.json")
    print(f"analyze: {' / '.join(v.kind for v in verdicts.values())} -> {path}")
    return 0 if all(v.is_conclusive for v in verdicts.values()) else 2


def cmd_scan(args) -> int:
    cfg = _merge_config(args)
    if cfg.signal is None:
        raise ValueError("scan needs --signal (or `signal` in the config file)")
    f = load_signal(cfg.signal)
    if cfg.x_grid is None:
        lo, hi = f.domain_box
        mid = 0.5 * (lo + hi)
        cfg.x_grid = [mid.tolist()]
    if cfg.directions is None:
        if f.d == 1:
            cfg.directions = [[1.0], [-1.0]]
        else:
            cfg.directions = [
                [math.cos(a), math.sin(a)]
                for a in np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
            ]
    if not cfg.x_grid or not cfg.directions:
        raise ValueError("scan needs nonempty x_grid and directions")
    estimate = scan(f, cfg.x_grid, cfg.directions, cfg.scan_config())
    report = check_equivalence(estimate)
    result = {"equivalence": report.to_json(), **estimate.to_json()}
    path = _write_report(cfg, result, "scan_report.json")
    csv_path = Path(str(path).removesuffix(".json") + "_heatmap.csv")
    estimate.heatmap_csv(csv_path)
    print(
        f"scan: {report.n_records} records, {report.n_disagreements} disagreements, "
        f"{report.n_inconclusive_fl}+{report.n_inconclusive_mod} inconclusive -> {path}, {csv_path}"
    )
    return 0 if report.n_disagreements == 0 else 1


def cmd_gabor_check(args) -> int:
    cfg = _merge_config(args)
    sys0 = cfg.scan_config().gabor_system(cfg.d)
    deviation = check_partition(sys0, n=512 if cfg.d == 1 else 64)
    worst = None  # the random test signals are 1D only
    if cfg.d == 1:
        signals = [
            random_band_limited(n=8192, bandwidth=6.0, seed=cfg.seed + i) for i in range(3)
        ]
        worst = worst_roundtrip(sys0, signals, 6.0)
    ok = deviation <= 1e-10 and (worst is None or worst <= 1e-6)
    result = {
        "partition_deviation": deviation,
        "worst_roundtrip_rel_l2": worst,
        "passed": ok,
    }
    path = _write_report(cfg, result, "gabor_check_report.json")
    trip = f"round trip {worst:.2e}" if worst is not None else "round trip not run (1D only)"
    print(
        f"gabor-check: partition deviation {deviation:.2e}, {trip} "
        f"-> {'OK' if ok else 'FAIL'} ({path})"
    )
    return 0 if ok else 1


def cmd_make_fixtures(args) -> int:
    cfg = _merge_config(args)
    out = cfg.out or "fixtures"
    manifest = write_fixture_set(out)
    print(f"make-fixtures: wrote {sorted(manifest)} to {out}")
    return 0


def cmd_selftest(args) -> int:
    if args.list:
        for name in SUITES:
            print(name)
        return 0
    cfg = _merge_config(args)
    if cfg.signal is not None:
        load_signal(cfg.signal)  # validation only; malformed -> error exit
    names = args.only if args.only else None
    ok, results = run_selftest(names)
    result = {"passed": ok, "suites": [r.to_json() for r in results]}
    if cfg.out:
        path = _write_report(cfg, result, "selftest_report.json")
        print(f"selftest report -> {path}")
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microloc",
        description="Discrete wave-front sets of sampled signals.",
    )
    parser.add_argument("--version", action="version", version=f"microloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--signal", help="signal file (header .json / .bin pair or 1D .csv)")
    common.add_argument("--config", help="JSON config file; flags override")
    common.add_argument("--q", type=str, default=None, help="frequency exponent, 1..inf")
    common.add_argument("--p", type=str, default=None, help="spatial exponent, 1..inf")
    common.add_argument("--s", type=float, default=None, help="weight exponent for <xi>^s")
    common.add_argument("--aperture-deg", dest="aperture_deg", type=float, default=None)
    common.add_argument("--alpha", type=float, default=None, help="spatial lattice step")
    common.add_argument("--beta", type=float, default=None, help="frequency lattice step")
    common.add_argument("--epsilon", type=float, default=None, help="Gabor dilation in (0,1]")
    common.add_argument("--rmax", dest="r_max", type=float, default=None)
    common.add_argument("--out", default=None, help="report path")
    common.add_argument("--seed", type=int, default=None)

    p_an = sub.add_parser("analyze", parents=[common], help="verdict at one (x0, direction)")
    p_an.add_argument("--x0", type=_parse_floats, default=None)
    p_an.add_argument("--theta", type=_parse_floats, default=None)
    p_an.add_argument("--method", choices=("fl", "mod", "both"), default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sc = sub.add_parser("scan", parents=[common], help="scan a grid of points and directions")
    p_sc.set_defaults(func=cmd_scan)

    p_gc = sub.add_parser("gabor-check", parents=[common], help="partition + round-trip check")
    p_gc.add_argument("--d", type=int, default=None, help="dimension (1 or 2)")
    p_gc.set_defaults(func=cmd_gabor_check)

    p_mf = sub.add_parser("make-fixtures", parents=[common], help="generate bundled signals")
    p_mf.set_defaults(func=cmd_make_fixtures)

    p_st = sub.add_parser("selftest", parents=[common], help="run acceptance suites")
    p_st.add_argument("--list", action="store_true", help="print suite names and exit")
    p_st.add_argument("--only", nargs="*", default=None, help="run only these suites")
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MicrolocError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
