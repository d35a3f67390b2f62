"""Command-line front end: region sweeps, simulations, derivations, entropies.

Subcommands: region, skp, simulate, resources, entropy, replay. Every
output file is accompanied by a <output>.manifest.json recording the
subcommand, the fully resolved options (defaults materialized), the seed,
the tool version and the SHA-256 digests of any input files; `replay`
re-runs a manifest and reproduces the outputs byte for byte.

Every flag can be defaulted through an environment variable with the
PUBPRIV_ prefix (e.g. PUBPRIV_SEED=7); explicit flags win. Exit codes:
0 success, 2 input/validation error, 3 budget error.

Tabular output is RFC-4180 CSV with '.' decimals and no locale; structured
output is JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .channels import isometric_extension, zoo
from .errors import (
    BudgetError,
    CapacityError,
    ConfigurationError,
    DimensionError,
    PubPrivError,
    RuleError,
    ValidationError,
)
from .region import OptimizerConfig, PARETO_CSV_COLUMNS, pareto_csv_rows, pareto_surface
from .resources import DERIVATIONS
from .serialize import channel_from_json, ensemble_from_json
from .entropics import (
    build_cq_state,
    cond_mutual_info_YB_given_X,
    cond_mutual_info_YE_given_X,
    mutual_info_XB,
    mutual_info_XE,
    mutual_info_XYB,
    mutual_info_XYE,
)
from . import wiretap as wt

_INPUT_DIGESTS: dict[str, str] = {}


def _env(name: str, default):
    """Environment override PUBPRIV_<NAME>; the raw string is parsed like a flag."""
    return os.environ.get(f"PUBPRIV_{name.upper().replace('-', '_')}", default)


def _read_json(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    _INPUT_DIGESTS[path] = hashlib.sha256(raw).hexdigest()
    return json.loads(raw.decode("utf-8"))


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: str, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _write_manifest(out_path: str, subcommand: str, options: dict):
    manifest = {
        "subcommand": subcommand,
        "options": options,
        "seed": options.get("seed"),
        "tool_version": __version__,
        "input_digests": dict(sorted(_INPUT_DIGESTS.items())),
        "output": out_path,
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _options(args: argparse.Namespace) -> dict:
    skip = {"func", "subcommand"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# Channel loading
# ---------------------------------------------------------------------------


def _load_channel(args):
    if getattr(args, "channel_json", None):
        return channel_from_json(_read_json(args.channel_json))
    if getattr(args, "cq_table", None):
        return zoo("cq_embedding", table=_read_json(args.cq_table))
    if getattr(args, "zoo", None):
        params = {}
        if args.p is not None:
            params["p"] = args.p
        if args.dim is not None:
            params["d"] = args.dim
        return zoo(args.zoo, **params)
    raise ValidationError("no channel given: use --zoo, --channel-json or --cq-table")


def _add_channel_flags(p: argparse.ArgumentParser):
    p.add_argument("--zoo", default=_env("zoo", None),
                   help="named channel: identity | dephasing | depolarizing | erasure")
    p.add_argument("--p", type=float, default=None, help="zoo channel noise parameter")
    p.add_argument("--dim", type=int, default=None, help="zoo channel dimension (identity/erasure)")
    p.add_argument("--channel-json", default=_env("channel_json", None),
                   help="path to a Kraus-family channel JSON")
    p.add_argument("--cq-table", default=_env("cq_table", None),
                   help="path to a row-stochastic p(b|a) JSON for a classical embedding")


def _add_optimizer_flags(p: argparse.ArgumentParser):
    p.add_argument("--restarts", type=int, default=int(_env("restarts", 4)))
    p.add_argument("--max-iters", type=int, default=int(_env("max_iters", 300)))
    p.add_argument("--alphabet-x", type=int, default=None, help="|X| (default: cardinality ceiling)")
    p.add_argument("--alphabet-y", type=int, default=None, help="|Y| (default: dim_in^2)")
    p.add_argument("--mixed-states", action="store_true", help="search mixed input states too")
    p.add_argument("--tol", type=float, default=float(_env("tol", 1e-7)), help="convergence tolerance")


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        alphabet_x=args.alphabet_x,
        alphabet_y=args.alphabet_y,
        pure_states_only=not args.mixed_states,
        convergence_tol=args.tol,
    )


def _parse_weights(items) -> list[tuple[float, float]]:
    grid = []
    for item in items:
        parts = item.split(",")
        if len(parts) != 2:
            raise ValidationError(f"weights must look like 'wR,wP', got {item!r}")
        grid.append((float(parts[0]), float(parts[1])))
    return grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_region(args) -> int:
    ch = _load_channel(args)
    iso = isometric_extension(ch)
    cfg = _optimizer_config(args)
    weights = _parse_weights(args.weights)
    samples = pareto_surface(iso, args.rs, weights, cfg)
    rows = pareto_csv_rows(samples, cfg)
    _write_csv(args.out, PARETO_CSV_COLUMNS, rows)
    _write_manifest(args.out, "region", _options(args))
    return 0


def cmd_skp(args) -> int:
    ch = _load_channel(args)
    iso = isometric_extension(ch)
    cfg = _optimizer_config(args)
    # Private-only setting: trivial public register, maximize P.
    cfg = OptimizerConfig(restarts=cfg.restarts, max_iters=cfg.max_iters, seed=cfg.seed,
                          alphabet_x=1, alphabet_y=cfg.alphabet_y,
                          pure_states_only=cfg.pure_states_only, convergence_tol=cfg.convergence_tol)
    samples = pareto_surface(iso, args.rs, [(0.0, 1.0)], cfg)
    header = ("R_S", "P", "I_YB", "I_YE", "seed", "restarts", "converged")
    rows = [
        (s.r_s, s.result.achieved.P, s.result.constraints.b, s.result.constraints.c,
         cfg.seed, cfg.restarts, int(s.result.converged))
        for s in samples
    ]
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, "skp", _options(args))
    return 0


SIMULATE_CSV_COLUMNS = ("n", "rate_public", "rate_private", "rate_key", "decoder", "trials",
                        "error", "ci_low", "ci_high", "full_criterion", "message_secrecy", "seed")


def run_simulation_spec(spec: dict, seed_override: int | None = None):
    """Execute an experiment spec; returns (header, rows)."""
    chd = spec.get("channel")
    if not isinstance(chd, dict):
        raise ValidationError("experiment spec needs a 'channel' object")
    if "p_joint" in chd:
        channel = wt.ClassicalWiretap(np.asarray(chd["p_joint"], dtype=float))
    elif "p_main" in chd and "p_eve" in chd:
        channel = wt.ClassicalWiretap.from_marginals(chd["p_main"], chd["p_eve"])
    else:
        raise ValidationError("channel needs either 'p_joint' or 'p_main'+'p_eve'")
    base = dict(spec.get("code", {}))
    if seed_override is not None:
        base["seed"] = seed_override
    if "input_p" in spec:
        law = np.asarray(spec["input_p"], dtype=float)
    elif "input_law" in spec:
        law = (np.asarray(spec["input_law"]["p_x"], dtype=float),
               np.asarray(spec["input_law"]["p_a_given_x"], dtype=float))
    else:
        raise ValidationError("experiment spec needs 'input_p' or 'input_law'")
    security_mode = spec.get("security", "none")
    rows = []
    for override in spec.get("sweep", [{}]):
        cfg = wt.CodeConfig(**{**base, **override})
        codebook = wt.generate_codebook(cfg, channel, law)
        est = wt.estimate_error(cfg, channel, codebook)
        if security_mode == "none":
            full, msg = "", ""
        else:
            rep = wt.security_distance(codebook, cfg, channel, mode=security_mode)
            full, msg = rep.full_criterion, rep.message_secrecy
        rows.append((cfg.n, cfg.rate_public, cfg.rate_private, cfg.rate_key, cfg.decoder,
                     cfg.trials, est.error, est.ci_low, est.ci_high, full, msg, cfg.seed))
    return SIMULATE_CSV_COLUMNS, rows


def cmd_simulate(args) -> int:
    spec = _read_json(args.config)
    header, rows = run_simulation_spec(spec, seed_override=args.seed)
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, "simulate", _options(args))
    return 0


def cmd_resources(args) -> int:
    if args.action != "derive":
        raise ValidationError(f"unknown resources action {args.action!r}; available: derive")
    name = args.name
    if name not in DERIVATIONS:
        raise ValidationError(f"unknown derivation {name!r}; available: {', '.join(sorted(DERIVATIONS))}")
    if name == "section3":
        if args.ib is None or args.ie is None:
            raise ValidationError("section3 needs --ib and --ie")
        transcript = DERIVATIONS[name](args.ib, args.ie)
    else:
        if args.a is None or args.b is None or args.c is None:
            raise ValidationError(f"{name} needs --a, --b and --c")
        if name == "otp_combination" and args.optimal_key is not None:
            transcript = DERIVATIONS[name](args.a, args.b, args.c, optimal_key_rate=args.optimal_key)
        else:
            transcript = DERIVATIONS[name](args.a, args.b, args.c)
    doc = transcript.as_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        _write_manifest(args.out, "resources", _options(args))
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def cmd_entropy(args) -> int:
    ch = _load_channel(args)
    iso = isometric_extension(ch)
    ens = ensemble_from_json(_read_json(args.ensemble))
    s = build_cq_state(ens, iso)
    doc = {
        "I_XB": mutual_info_XB(s),
        "I_XE": mutual_info_XE(s),
        "I_YB_given_X": cond_mutual_info_YB_given_X(s),
        "I_YE_given_X": cond_mutual_info_YE_given_X(s),
        "I_XYB": mutual_info_XYB(s),
        "I_XYE": mutual_info_XYE(s),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.out, "entropy", _options(args))
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def cmd_replay(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    sub = manifest["subcommand"]
    options = manifest["options"]
    argv = [sub]
    if sub == "resources":
        argv.append(options.get("action", "derive"))
        argv.append(options["name"])
    for key, val in options.items():
        if key in ("action", "name") or val is None or val is False:
            continue
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        elif isinstance(val, list):
            argv.append(flag)
            argv.extend(str(v) for v in val)
        else:
            argv.extend([flag, str(val)])
    return main(argv)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pubpriv", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_out, seed_default=0):
        env_seed = _env("seed", None)
        seed = int(env_seed) if env_seed is not None else seed_default
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--threads", type=int, default=int(_env("threads", 1)),
                       help="reserved; outputs never depend on it")
        p.add_argument("--out", default=_env("out", default_out))

    p_region = sub.add_parser("region", help="optimizer sweep over the one-shot region")
    _add_channel_flags(p_region)
    _add_optimizer_flags(p_region)
    p_region.add_argument("--rs", type=float, nargs="+", default=[0.0], help="key-rate sweep")
    p_region.add_argument("--weights", nargs="+", default=["1,0", "0,1"],
                          help="objective weights wR,wP (repeatable)")
    common(p_region, "region.csv")
    p_region.set_defaults(func=cmd_region)

    p_skp = sub.add_parser("skp", help="private-only (trivial X) key-assisted sweep")
    _add_channel_flags(p_skp)
    _add_optimizer_flags(p_skp)
    p_skp.add_argument("--rs", type=float, nargs="+", default=[0.0])
    common(p_skp, "skp.csv")
    p_skp.set_defaults(func=cmd_skp)

    p_sim = sub.add_parser("simulate", help="run a wiretap-code experiment spec")
    p_sim.add_argument("--config", required=True, help="experiment JSON path")
    common(p_sim, "simulate.csv", seed_default=None)  # None: keep the spec's own seed
    p_sim.set_defaults(func=cmd_simulate)

    p_res = sub.add_parser("resources", help="resource-calculus derivations")
    p_res.add_argument("action", help="derive")
    p_res.add_argument("name", help="derivation name (section3, ds03, otp_combination)")
    p_res.add_argument("--ib", type=float, default=None, help="I(X;B)")
    p_res.add_argument("--ie", type=float, default=None, help="I(X;E)")
    p_res.add_argument("--a", type=float, default=None, help="I(X;B) of the witness ensemble")
    p_res.add_argument("--b", type=float, default=None, help="I(Y;B|X)")
    p_res.add_argument("--c", type=float, default=None, help="I(Y;E|X)")
    p_res.add_argument("--optimal-key", type=float, default=None, help="best-known key rate I(XY;E)")
    common(p_res, None)
    p_res.set_defaults(func=cmd_resources)

    p_ent = sub.add_parser("entropy", help="entropic quantities of an ensemble through a channel")
    _add_channel_flags(p_ent)
    p_ent.add_argument("--ensemble", required=True, help="ensemble JSON path")
    common(p_ent, None)
    p_ent.set_defaults(func=cmd_entropy)

    p_rep = sub.add_parser("replay", help="re-run a manifest")
    p_rep.add_argument("--manifest", required=True)
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    _INPUT_DIGESTS.clear()
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (BudgetError, CapacityError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, DimensionError, ConfigurationError, RuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, FileNotFoundError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PubPrivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
