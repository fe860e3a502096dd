"""Command-line driver: solve, sweep, verify, liouville.

Exit codes: 0 all checks passed, 1 a certified bound failed or no solution
was found, 2 usage or parameter-file errors.  All array output is CSV, all
metadata JSON; defaults (grids, tolerances, horizons) are recorded in every
JSON header for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as hio
from .errors import HenonMorseError, NoBracket, NoConverge, OverflowBlowUp
from .halfline import Certificate, certify, map_check, qk_negative_count, transform_profile
from .liouville import (HALF_LINE, energy_of, instability_witness, integrate_limit_system,
                        witness_quadrature)
from .gates import WITNESS_GATE
from .nonlinearity import pure_power
from .radial_bvp import image_params, image_shot, mapped_profile, shoot_nodal
from .spectral import MIN_MESH, SingularSpectrum, lambda_ell, morse_index, onset_alphas


def _parse_branch(spec):
    if spec == "positive":
        return 0
    if isinstance(spec, str) and spec.startswith("nodal:"):
        nodes = int(spec.split(":", 1)[1])
        if nodes < 1:
            raise ValueError("nodal branch needs at least one node")
        return nodes
    raise ValueError(f"unknown branch {spec!r} (use 'positive' or 'nodal:k')")


def _load_params_file(path, need_alpha=True):
    try:
        raw = hio.read_json(path)
        probe = dict(raw)
        if not need_alpha:
            probe.setdefault("alpha", 0.0)
        params = hio.params_from_dict(probe)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"parameter file error: {exc}") from None
    return raw, params


def _record(name, check):
    """One check as ``verify`` prints it: its name and its record without "pass"."""
    return f"{name}: {json.dumps({k: v for k, v in check.items() if k != 'pass'}, default=float)}"


def cmd_solve(args):
    """Shoot one profile and store it, certified on its image; a mu = 0 profile stores its image."""
    raw, base_params = _load_params_file(args.params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        nodes = _parse_branch(raw.get("branch", "positive"))
        shot = image_shot(base_params, nodes, tol=args.tol, grid_size=args.grid)
        mapped = mapped_profile(base_params, nodes, shot, tol=args.tol)
        profile = shoot_nodal(base_params, nodes, tol=args.tol, grid_size=args.grid, shot=shot)
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (NoBracket, NoConverge) as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    checks, _ = certify(mapped)
    extra = {"branch": raw.get("branch", "positive"),
             "tool": {"grid": args.grid, "tol": args.tol}}
    if mapped is not profile:
        extra["image"] = hio.save_image(mapped, out / "profile", checks)
    hio.save_profile(profile, out / "profile", extra=extra)
    print(f"wrote {out / 'profile'}.csv/.json  (amplitude {profile.amplitude[0]:.6g}, "
          f"relative residual {checks['radial_residual']['value']:.3e})")
    failed = [(name, c) for name, c in checks.items() if not c["pass"]]
    for name, c in failed:
        why = (f"relative residual {c['value']:.3e} > {c['limit']:g}"
               if name == "radial_residual" else _record(name, c))
        print(f"profile not certified: {why}", file=sys.stderr)
    return 1 if failed else 0


def _sweep_row(raw, alpha, branch_spec, grid, mesh, tol, horizon, shared):
    """One fully certified sweep row as a plain dict: gated by a ``Certificate``, then counted.

    A row that fails a check is ``uncertified``, names each failed check in
    its reason, and has no counts: those of an uncertified profile certify
    nothing.  The row is the map (``mapped_profile``) of the image shot kept
    in the dict ``shared``, checked by the image's Certificate and counted on
    the image's SingularSpectrum kept there, each made by the first row that
    needs it.  A mu = 0 row is never sampled on an r-grid; a mu > 0 row is
    its own image.
    """
    row = {"alpha": alpha, "branch": branch_spec, "status": "ok", "reason": ""}
    try:
        params = hio.params_from_dict({**raw, "alpha": alpha})
        nodes = _parse_branch(branch_spec)
        if "shot" not in shared:
            shared["shot"] = image_shot(params, nodes, tol=tol, grid_size=grid)
        profile = mapped_profile(params, nodes, shared["shot"], tol=tol)
        if "certificate" not in shared:
            shared["certificate"] = Certificate(profile.image, profile.image_horizon(horizon))
        checks = shared["certificate"].checks(params)
        row["amplitude"] = list(profile.amplitude)
        row["energy"] = profile.energy
        row["relative_residual"] = checks["radial_residual"]["value"]
        row["transformed_residual"] = checks["transformed_residual"]["value"]
        row["pohozaev"] = {k: v for k, v in checks["pohozaev_slack"].items() if k != "pass"}
        failed = [_record(name, c) for name, c in checks.items() if not c["pass"]]
        if failed:
            row["status"], row["reason"] = "uncertified", "; ".join(failed)
            return row
        if "spectrum" not in shared:
            shared["spectrum"] = SingularSpectrum(profile.image, mesh)
        report = morse_index(profile, mesh=mesh, spectrum=shared["spectrum"])
        row["morse"] = hio.morse_report_to_dict(report)
        row["total_morse_index"] = report.total_index
        row["mesh_stable"] = report.mesh_stable
        if not report.mesh_stable:
            row["status"] = "unstable"
            row["reason"] = "sector counts changed under mesh doubling"
    except (HenonMorseError, ValueError) as exc:
        # a parameter error fails this row only, like a solver error
        row["status"] = "failed"
        row["reason"] = f"{type(exc).__name__}: {exc}"
    return row


def _group_key(raw, alpha, branch_spec):
    """Rows with one key share a shot: by (branch, image problem), or by alpha without one."""
    try:
        return branch_spec, image_params(hio.params_from_dict({**raw, "alpha": alpha}))
    except (KeyError, TypeError, ValueError):
        return branch_spec, alpha


def _sweep_group(job):
    """The rows of one group in ascending alpha, and its onset enclosures (worker-safe).

    The rows of a group hold one shot, one image certificate and one
    spectrum for the length of this call only, a lone row too.  Only a group
    of two or more rows lists its onset enclosures.
    """
    raw, alphas, branch_spec, grid, mesh, tol, horizon = job
    shared = {}
    rows = [_sweep_row(raw, a, branch_spec, grid, mesh, tol, horizon, shared)
            for a in sorted(alphas)]
    spectrum = shared.get("spectrum") if len(alphas) > 1 else None
    return rows, onset_alphas(spectrum, max(alphas)) if spectrum else []


def cmd_sweep(args):
    raw, _ = _load_params_file(args.params, need_alpha=False)
    alphas = raw.get("alphas", [])
    branches = raw.get("branches", ["positive"])
    # checked before any row runs: a string would be iterated by character
    if not (isinstance(alphas, list) and all(type(a) in (int, float) for a in alphas)):
        raise SystemExit("parameter file error: 'alphas' must be a list of numbers")
    if not (isinstance(branches, list) and all(isinstance(b, str) for b in branches)):
        raise SystemExit("parameter file error: 'branches' must be a list of strings")
    if not branches:
        raise SystemExit("parameter file error: 'branches' is empty")
    # a repeated alpha (4 and 4.0 are one) or branch would run and list its rows twice
    for key, values in (("alphas", [float(a) for a in alphas]), ("branches", branches)):
        if len(set(values)) < len(values):
            raise SystemExit(f"parameter file error: '{key}' repeats a value")
    if not alphas:
        print("sweep error: empty alpha list", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    groups = {}
    for br in branches:
        for a in alphas:
            groups.setdefault(_group_key(raw, float(a), br), []).append(float(a))
    jobs = [(raw, group, br, args.grid, args.mesh, args.tol, args.T)
            for (br, _), group in groups.items()]
    # the pool forks all its workers at its first task: no more than there are groups
    workers = min(args.workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # deferred: only a pool needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_group, jobs))
    else:
        done = [_sweep_group(j) for j in jobs]
    rows = sorted((row for group_rows, _ in done for row in group_rows),
                  key=lambda r: (r["branch"], r["alpha"]))
    onsets = {job[2]: found for job, (_, found) in zip(jobs, done) if found}

    # index > 1 breaks symmetry only for the ground state, the positive branch
    onset = min((row["alpha"] for row in rows
                 if row["branch"] == "positive" and row["status"] == "ok"
                 and row.get("total_morse_index", 0) > 1), default=None)
    payload = {
        "kind": "sweep",
        "base_params": {k: v for k, v in raw.items() if k not in ("alphas", "branches")},
        "alphas": alphas,
        "branches": branches,
        "rows": rows,
        "summary": {"smallest_alpha_with_index_above_1": onset,
                    "onset_alphas": onsets},
        "tool": {"grid": args.grid, "mesh": args.mesh, "tol": args.tol, "T": args.T},
    }
    hio.write_json(out / "sweep.json", payload)
    with open(out / "sweep.csv", "w") as fh:
        fh.write("alpha,branch,status,amplitude_u,amplitude_v,energy,"
                 "total_morse_index,mesh_stable,transformed_residual,pohozaev_slack\n")
        for row in rows:
            amp = row.get("amplitude", [float("nan")] * 2)
            fh.write(",".join(str(x) for x in (
                row["alpha"], row["branch"], row["status"],
                amp[0], amp[1], row.get("energy", float("nan")),
                row.get("total_morse_index", ""),
                row.get("mesh_stable", ""),
                row.get("transformed_residual", float("nan")),
                row.get("pohozaev", {}).get("slack", float("nan")),
            )) + "\n")
    status = [r["status"] for r in rows]
    print(f"wrote {out / 'sweep.json'} ({len(rows)} rows, {status.count('failed')} failed, "
          f"{status.count('uncertified')} uncertified, symmetry-breaking onset alpha = {onset})")
    return 0


def cmd_verify(args):
    """Re-certify a stored profile: on its stored image when it has one, else on its r-grid.

    With an image (``solve`` of a mu = 0 profile) the gates are the image's
    checks, the map check of every stored r-sample against the image, the
    stable sector on the image's half line, and the image's counts, which
    are ``sweep``'s; the counts on the stored r-grid are made again as an
    independent, reported check, whose disagreement is a warning.
    """
    try:
        profile = hio.load_profile(args.profile)
        mapped = hio.load_image(args.profile)
    except (OSError, json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError) as exc:
        print(f"profile load error: {exc}", file=sys.stderr)
        return 2
    report = {"kind": "verification", "profile": str(args.profile), "checks": {},
              "trivial": profile.is_trivial, "rule": "image" if mapped else "r-grid"}
    if profile.is_trivial:
        if args.out:
            hio.write_json(args.out, report)
        print("trivial profile: vacuous pass")
        return 0
    target = mapped or profile
    checks, tp = certify(target, T=args.T)
    if mapped:
        checks["map"] = map_check(profile, mapped)
    report["checks"] = checks

    # the first stable sector l* on the half line: Q_k's negative directions at l* - 1 and l*,
    # each the inertia of its stiffness on the t-grid, must equal the pencils' counts.  The
    # form is cut at the horizon T, whose natural end frees the inner radius e^(-beta T); an
    # image's half line (beta = 1) carries the sector at l(l+N-2)/beta^2, beta = (2+alpha)/2
    beta, lam = target.beta, target.lam
    horizon = {"T": tp.T / lam if args.T is None else args.T,
               "inner_radius": math.exp(-tp.beta * tp.T / beta)}
    counts = None
    try:
        rep = morse_index(target, mesh=args.mesh)
        report["morse"] = hio.morse_report_to_dict(rep)
        counts = rep.counts()
        stable = next(ell for ell, neg in counts.items() if neg == 0)
        ells = range(max(stable - 1, 0), stable + 1)
        lams = [lambda_ell(ell, profile.params.N) / beta ** 2 for ell in ells]
        radial = [counts[ell] for ell in ells]
        halfline = [qk_negative_count(tp, lam) for lam in lams]
        if mapped:
            halfline, cells = _refined_halfline(mapped.image, tp, lams, radial, halfline)
            horizon["cells"] = cells
        checks["stable_sector"] = {"ell": stable, "halfline": halfline, "radial": radial,
                                   **horizon, "pass": halfline == radial}
    except HenonMorseError as exc:
        checks["stable_sector"] = {"error": str(exc), **horizon, "pass": False}
    if mapped:
        report["r_grid_recount"] = _recount(profile, args.mesh, counts)

    ok = all(c.get("pass", False) for c in checks.values())
    report["pass"] = bool(ok)
    if args.out:
        hio.write_json(args.out, report)
    print(f"rule: {report['rule']}")
    for name, c in checks.items():
        print(f"[{'PASS' if c.get('pass') else 'FAIL'}] {_record(name, c)}")
    if mapped:
        recount = report["r_grid_recount"]
        print(f"[{'INFO' if recount['agrees'] else 'WARN'}] r_grid_recount: "
              f"{json.dumps(recount, default=float)}")
    return 0 if ok else 1


def _refined_halfline(image, tp, lams, radial, halfline):
    """An image's half-line counts at ``lams``, on tp's t-grid or a finer one, and its cells.

    At large alpha, l* is large and its sector lives within about
    1/sqrt(l(l+N-2)/beta^2) of s = 0, where the uniform grid over the
    image's horizon is coarser than the image's own samples (30/4000
    against 1/4000).  So while the counts differ from ``radial`` the image
    is transformed again at the same horizon with twice the cells, at most
    twice: a discretization error of the grid goes, a difference of the
    forms stays.
    """
    cells = len(tp.tgrid) - 1
    for _ in range(2):
        if halfline == radial:
            break
        cells *= 2
        fine = transform_profile(image, T=tp.T, grid_size=cells)
        halfline = [qk_negative_count(fine, lam) for lam in lams]
    return halfline, cells


def _recount(profile, mesh, counts):
    """The counts of a stored r-grid, as ``verify`` reports them beside its image's ``counts``."""
    def negative(c):
        return {ell: neg for ell, neg in c.items() if neg}

    try:
        rep = morse_index(profile, mesh=mesh)
    except HenonMorseError as exc:
        return {"error": str(exc), "agrees": False}
    return {"total": rep.total_index, "mesh_stable": rep.mesh_stable,
            "agrees": counts is not None and negative(rep.counts()) == negative(counts)}


def cmd_liouville(args):
    try:
        f = pure_power(args.p)
        starts = [float(s) for s in args.windows.split(",")]
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    if not (0.0 <= args.energy < math.inf and all(0.0 <= s < math.inf for s in starts)):
        print("need --energy and --windows in [0, inf)", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.energy == 0.0:
        payload = {"kind": "liouville", "trivial": True, "windows": []}
        hio.write_json(out / "liouville.json", payload)
        print("trivial zero-energy trajectory: nothing to certify")
        return 0

    du0 = (2.0 * args.energy) ** 0.5  # E(0) = du^2/2 at u(0) = 0
    T = max(s + args.length for s in starts) + 5.0
    try:
        traj = integrate_limit_system(f, 1.0, HALF_LINE, (0.0, 0.0, du0, 0.0),
                                      T=T, steps=max(2000, int(20 * T)))
    except OverflowBlowUp as exc:
        print(f"no bounded trajectory: {exc}", file=sys.stderr)
        return 1
    E = energy_of(traj)
    drift = float(np.max(np.abs(E - E[0])))
    hio._write_csv(out / "trajectory.csv", ["t", "u", "v", "du", "dv"],
                   [traj.tgrid, traj.u, traj.v, traj.du, traj.dv])

    windows = []
    all_negative = True
    for s in starts:
        q_min, pair = instability_witness(traj, (s, s + args.length), mesh=args.mesh)
        q_direct, mass = witness_quadrature(traj, pair)
        sound = abs(q_direct - q_min * mass) <= WITNESS_GATE * (1.0 + abs(q_min))
        windows.append({
            "window": [s, s + args.length],
            "q_min": q_min,
            "q_quadrature": q_direct,
            "sound": bool(sound),
            "witness_negative": bool(q_min < 0.0),
        })
        ts, p1, p2 = pair
        hio._write_csv(out / f"witness_{s:g}.csv", ["t", "phi1", "phi2"], [ts, p1, p2])
        if q_min >= 0.0 or not sound:
            all_negative = False
    payload = {
        "kind": "liouville",
        "trivial": False,
        "p": args.p,
        "energy": args.energy,
        "energy_drift": drift,
        "windows": windows,
        "all_windows_unstable": bool(all_negative),
    }
    hio.write_json(out / "liouville.json", payload)
    for w in windows:
        print(f"[{'PASS' if w['witness_negative'] and w['sound'] else 'FAIL'}] "
              f"window {w['window']}: q_min = {w['q_min']:.6f}")
    if not all_negative:
        print("some window admitted no certified instability witness", file=sys.stderr)
        return 1
    return 0


def _bounded(convert, ok, what):
    """An argparse type: ``convert`` the text and require ``ok`` of the value."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, not {text}")
    return parse


_positive = _bounded(float, lambda x: 0.0 < x < math.inf, "a finite number above 0")
_grid = _bounded(int, lambda n: n >= 100, "an integer of at least 100")
_mesh = _bounded(int, lambda n: n >= MIN_MESH, f"an integer of at least {MIN_MESH}")
_workers = _bounded(int, lambda n: n >= 1, "an integer of at least 1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="henon-morse",
        description="radial solves, Morse indices and half-line stability checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute one radial profile; exit 1 if a certificate fails")
    ps.add_argument("--params", required=True, help="JSON parameter file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--grid", type=_grid, default=4000)
    ps.add_argument("--tol", type=_positive, default=1e-10)
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="alpha sweep with certified Morse indices")
    pw.add_argument("--params", required=True,
                    help="JSON parameter file with 'alphas' and 'branches'")
    pw.add_argument("--out", required=True)
    pw.add_argument("--grid", type=_grid, default=4000)
    pw.add_argument("--mesh", type=_mesh, default=1000)
    pw.add_argument("--tol", type=_positive, default=1e-10)
    pw.add_argument("--T", type=_positive, default=None,
                    help="transform horizon (default 30/beta)")
    pw.add_argument("--workers", type=_workers, default=1,
                    help="worker processes, at most one per sweep group")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="re-certify a stored profile")
    pv.add_argument("--profile", required=True,
                    help="base path of a stored profile (without extension)")
    pv.add_argument("--out", default=None, help="verification JSON path")
    pv.add_argument("--mesh", type=_mesh, default=1000)
    pv.add_argument("--T", type=_positive, default=None)
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("liouville", help="window instability certificates")
    pl.add_argument("--p", type=float, default=4.0)
    pl.add_argument("--energy", type=float, required=True)
    pl.add_argument("--windows", default="0,25,50,100",
                    help="comma-separated window starts")
    pl.add_argument("--length", type=_positive, default=20.0)
    pl.add_argument("--mesh", type=_mesh, default=800)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_liouville)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        # parameter-file failures funnel here with a diagnostic message
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
