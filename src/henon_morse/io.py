"""CSV + JSON persistence for profiles, transforms and reports.

Arrays go to columnar CSV; metadata goes to JSON with sorted keys so that
identical inputs produce byte-identical files apart from the ``created``
timestamp field.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

from .halfline import TransformedProfile, pohozaev_record, transformed_residual
from .nonlinearity import NonlinearityF
from .radial_bvp import (
    ProblemParams,
    RadialProfile,
    action_energy,
    relative_residual,
    residual,
)


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def params_to_dict(params: ProblemParams):
    return {
        "N": params.N,
        "alpha": params.alpha,
        "mu1": params.mu1,
        "mu2": params.mu2,
        "family": params.f.family,
        "p": params.f.p,
        "a1": params.f.a1,
        "a2": params.f.a2,
        "b": params.f.b,
    }


def params_from_dict(d):
    """ProblemParams of a parameter file: an integral N and finite alpha, mu1, mu2."""
    N, alpha = float(d["N"]), float(d["alpha"])
    mu1, mu2 = float(d.get("mu1", 0.0)), float(d.get("mu2", 0.0))
    if not N.is_integer():
        raise ValueError(f"dimension N must be an integer, not {d['N']!r}")
    if not all(map(math.isfinite, (alpha, mu1, mu2))):
        raise ValueError("alpha, mu1 and mu2 must be finite")
    f = NonlinearityF(
        family=d["family"], p=float(d["p"]),
        a1=float(d.get("a1", 1.0)), a2=float(d.get("a2", 1.0)),
        b=float(d.get("b", 0.0)),
    )
    return ProblemParams(N=int(N), alpha=alpha, mu1=mu1, mu2=mu2, f=f)


def _write_csv(path, header, columns):
    """Header and rows of ``repr`` floats, byte for byte as ``csv.writer`` writes them."""
    line = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), 250):  # a block bounds the floats and text held at once
            rows = np.column_stack([c[i:i + 250] for c in columns]).astype(float, copy=False)
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def _read_csv(path, ncols):
    """The ``ncols`` columns of a CSV written by ``_write_csv``; ValueError for any other shape."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a header-only file: rejected below, not warned of
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != ncols:
        raise ValueError(f"{path}: expected {ncols} columns, read {len(data)} rows of {data.shape[1]}")
    return list(data.T)


def write_json(path, payload):
    payload = {**payload, "created": _timestamp()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_profile(profile: RadialProfile, basepath, extra=None):
    """Write <base>.csv (r,u,v,du,dv) and <base>.json (params + certificates)."""
    base = Path(basepath)
    _write_csv(base.with_suffix(".csv"), ["r", "u", "v", "du", "dv"],
               [profile.grid, profile.u, profile.v, profile.du, profile.dv])
    header = {
        "kind": "radial_profile",
        "params": params_to_dict(profile.params),
        "amplitude": [profile.amplitude[0], profile.amplitude[1]],
        "grid_size": len(profile.grid) - 1,
        "residual": residual(profile),
        "relative_residual": relative_residual(profile),
        "energy": action_energy(profile),
    }
    if extra:
        header.update(extra)
    write_json(base.with_suffix(".json"), header)
    return base.with_suffix(".csv"), base.with_suffix(".json")


def load_profile(basepath):
    """Rebuild a RadialProfile from <base>.csv / <base>.json.

    ``save_profile`` writes every value with ``repr``, so the rebuilt arrays
    equal the saved ones bit for bit, and so does anything computed from them.
    ValueError unless r is a uniform grid of >= 101 points on [0, 1] and all samples are finite.
    """
    base = Path(basepath)
    header = read_json(base.with_suffix(".json"))
    params = params_from_dict(header["params"])
    r, u, v, du, dv = _read_csv(base.with_suffix(".csv"), 5)
    if not (len(r) > 100 and np.max(np.abs(r - np.linspace(0.0, 1.0, len(r)))) <= 1e-12):
        raise ValueError(f"{base}.csv: r is not a uniform grid of at least 101 points on [0, 1]")
    if not np.isfinite([u, v, du, dv]).all():
        raise ValueError(f"{base}.csv: a sample of u, v, du or dv is not finite")
    amp = header.get("amplitude", [float(u[0]), float(v[0])])
    return RadialProfile(params, r, u, v, du, dv, (float(amp[0]), float(amp[1])))


def save_transformed(tp: TransformedProfile, basepath, extra=None):
    base = Path(basepath)
    _write_csv(base.with_suffix(".csv"), ["t", "u", "v", "du", "dv"],
               [tp.tgrid, tp.u, tp.v, tp.du, tp.dv])
    header = {
        "kind": "transformed_profile",
        "params": params_to_dict(tp.params),
        "alpha": tp.alpha,
        "beta": tp.beta,
        "gamma": tp.gamma,
        "T": tp.T,
        "grid_size": len(tp.tgrid) - 1,
        "residual": transformed_residual(tp),
        "pohozaev": pohozaev_record(tp),
    }
    if extra:
        header.update(extra)
    write_json(base.with_suffix(".json"), header)
    return base.with_suffix(".csv"), base.with_suffix(".json")


def load_transformed(basepath):
    base = Path(basepath)
    header = read_json(base.with_suffix(".json"))
    params = params_from_dict(header["params"])
    t, u, v, du, dv = _read_csv(base.with_suffix(".csv"), 5)
    return TransformedProfile(
        params=params, beta=float(header["beta"]), gamma=float(header["gamma"]),
        tgrid=t, u=u, v=v, du=du, dv=dv,
    )


def morse_report_to_dict(report):
    return {
        "per_ell": [
            {"ell": ell, "multiplicity": mult, "negatives": neg}
            for ell, mult, neg in report.per_ell
        ],
        "total": report.total_index,
        "certificate": report.truncation_certificate,
        "mesh": report.mesh,
        "mesh_stable": report.mesh_stable,
        "warnings": report.warnings,
        "nu_hat": [
            {"j": j, "mesh": _finite_or_none(a), "2mesh": _finite_or_none(b)}
            for j, a, b in report.nu_hat
        ],
    }


def _finite_or_none(bracket):
    """A bracket for JSON: an unbounded end becomes null."""
    return [x if np.isfinite(x) else None for x in bracket]
