"""Command line front end: ``cl13 verify <suite> [options]``.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 bad usage or
configuration.  A JSON config file can stand in for the flags; explicit
flags win on conflict.  CL13_OUT_DIR names the default output directory
for relative --out paths.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .verify import (
    SUITE_NAMES,
    ConfigError,
    ScenarioConfig,
    emit_report,
    run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cl13")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite and emit a report")
    v.add_argument("suite", choices=SUITE_NAMES, help="which suite to run")
    v.add_argument("--seed", type=int, default=None, help="deterministic run seed")
    v.add_argument("--m", default=None, help="comma separated mass values, e.g. 0.5,1,2")
    v.add_argument(
        "--grid-steps", default=None, help="comma separated FD steps for convergence"
    )
    v.add_argument(
        "--tol", type=float, default=None, help="override the field-equation residual tolerance"
    )
    v.add_argument("--out", default=None, help="write the report to this file")
    v.add_argument("--format", choices=("json", "text"), default=None)
    v.add_argument("--config", default=None, help="JSON config file (flags win)")
    v.add_argument("--sample-count", type=int, default=None)
    v.add_argument("--idempotent", default=None, help="t1..t4 label")
    v.add_argument("--family", default=None, help="'random' or a family JSON file")
    return parser


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"cannot parse {what}: {text!r}") from None


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from None


def _load_config(args) -> ScenarioConfig:
    obj = {}
    if args.config:
        obj = _read_json(args.config, "config")
        if not isinstance(obj, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in ("suite", "seed", "format", "sample_count", "idempotent"):
        if getattr(args, key) is not None:
            obj[key] = getattr(args, key)
    if args.m is not None:
        obj["m_values"] = _parse_floats(args.m, "--m")
    if args.grid_steps is not None:
        obj["grid_steps"] = _parse_floats(args.grid_steps, "--grid-steps")
    if args.tol is not None:
        tolerances = dict(obj.get("tolerances", {}))
        tolerances["residual"] = args.tol
        obj["tolerances"] = tolerances
    if args.family is not None:
        obj["family"] = "random" if args.family == "random" else _read_json(args.family, "family")
    return ScenarioConfig.from_json_obj(obj)


def _resolve_out_path(path: str) -> str:
    base = os.environ.get("CL13_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _keep_heap() -> None:
    """Keep arrays below 32 MiB on a heap that is never trimmed; a no-op off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's cap, above any array of a report
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: a report reuses the pages of the last


def _attach_values(argv: list[str]) -> list[str]:
    """Attach a value argparse takes for a flag (-2,7 or -1e3) to its --m or --grid-steps."""
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--m", "--grid-steps") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    return argv


def main(argv=None) -> int:
    _keep_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(cfg)
    rendered = emit_report(report, cfg.format)
    if args.out:
        out_path = _resolve_out_path(args.out)
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
