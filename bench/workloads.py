"""Workload menus, per-run case draws and the operations each workload times.

Every operation goes through the package's public entry points
(``henon_morse.cli.main`` and module attributes, so a traced run sees the
rebound wrappers) and is timed around the program calls only; reading the
program's output files and comparing them with ``reference.json`` happens
outside the timed interval.

An operation is one sweep row, one profile certification (``verify`` plus
the weighted eigen-solve on the first stable sector) or one Liouville
window set.  It fails if it raises, or if its output disagrees with the
recorded reference.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# relative tolerance for amplitudes, q_min and mu_min against the reference;
# loose enough for a different but equally converged solver, tight enough to
# pin the branch and the discretisation
RTOL = 1e-6

POWER4 = {"N": 2, "mu1": 0.0, "mu2": 0.0, "family": "pure_power", "p": 4,
          "a1": 1.0, "a2": 1.0, "b": 0.0}

# the README sweep.json: N=2, p=4, positive branch, alpha = 0, 2, ..., 20
HEADLINE_ALPHAS = [float(a) for a in range(0, 21, 2)]


def _row(key, alpha, branch, **params):
    return {"id": f"{key}@a{alpha:g}", "kind": "row", "params": {**POWER4, **params},
            "alpha": float(alpha), "branch": branch}


# One slot per way the shooting layer is used; the seed picks one variant per
# slot.  Variants of a slot do about the same work (RHS evaluations within
# about 10%), so the draw moves wall_s little.  Alphas stay away from the
# near-degenerate alpha_k = 0.60, 3.20, 5.80, 8.40, 11.00 of the positive
# p=4 branch.
BRANCH_SLOTS = [
    [_row("N3-mu1-positive", a, "positive", N=3, mu1=1.0, mu2=1.0) for a in (1, 2)],
    [_row("N3-mu1-nodal1", a, "nodal:1", N=3, mu1=1.0, mu2=1.0) for a in (1, 2)],
    [_row("N2-nodal1", a, "nodal:1") for a in (4, 4.5, 7)],
    [_row("N2-nodal2", a, "nodal:2") for a in (2, 2.5)],
    [_row("N2-p3-positive", a, "positive", p=3) for a in (4, 7)],
    [_row("N2-quartic-b0.5", a, "positive", family="quartic_coupled", b=0.5) for a in (4, 7)],
    # supercritical: p >= 2(N+alpha)/(N-2), so no solution exists (Ni 1982)
    [_row("N3-p8-supercritical", a, "positive", N=3, p=8) for a in (0.25, 0.5)],
]

# certify: N >= 3 profiles (the weighted eigenproblem needs gamma > 0)
CERTIFY_PROFILES = [
    {"id": f"N3-mu{mu:g}@a{a:g}", "kind": "profile",
     "params": {**POWER4, "N": 3, "alpha": float(a), "mu1": float(mu), "mu2": float(mu),
                "branch": "positive"}}
    for a, mu in ((0, 0), (1, 0), (2, 0), (0, 0.5), (1, 0.5), (2, 0.5))
]
CERTIFY_PER_RUN = 2
# every pass certifies all three window sets; close energies keep their costs alike
LIOUVILLE_ENERGIES = [0.9, 1.0, 1.1]


def _liouville_case(energy):
    return {"id": f"liouville@E{energy:g}", "kind": "liouville", "energy": energy}


def draw_cases(workload, rng):
    """The run's cases: a list of operation specs drawn from the workload's menu."""
    if workload == "headline_sweep":
        alphas = list(HEADLINE_ALPHAS)
        rng.shuffle(alphas)  # the alpha list is fixed; only its order varies
        return [{"id": "headline", "kind": "sweep", "params": dict(POWER4), "alphas": alphas}]
    if workload == "branch_mix":
        rows = [dict(rng.choice(slot)) for slot in BRANCH_SLOTS]
        rng.shuffle(rows)
        return rows
    if workload == "certify":
        cases = [dict(c) for c in rng.sample(CERTIFY_PROFILES, CERTIFY_PER_RUN)]
        cases += [_liouville_case(e) for e in LIOUVILLE_ENERGIES]
        rng.shuffle(cases)
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def smoke_cases(workload):
    """One small operation per workload, for the harness self-check."""
    if workload == "headline_sweep":
        return [{"id": "headline", "kind": "sweep", "params": dict(POWER4), "alphas": [0.0]}]
    if workload == "branch_mix":
        return [dict(BRANCH_SLOTS[4][0])]
    if workload == "certify":
        return [dict(CERTIFY_PROFILES[0]), _liouville_case(1.0)]
    raise ValueError(f"unknown workload {workload!r}")


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def close(x, ref, rtol=RTOL):
    return abs(x - ref) <= rtol * max(abs(ref), 1e-3)


# -- independent node-count oracle ------------------------------------------

def node_count(params, amplitude):
    """Interior sign changes of the radial solution with centre value ``amplitude``.

    Integrates the scalar (or diagonal u = v) ODE with its own right-hand side,
    independent of the package, and counts sign changes on (0, 0.995).
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    N, a, mu, p = params["N"], params["alpha"], params["mu1"], params["p"]
    if params["family"] == "quartic_coupled":
        coef, p = params["a1"] + params["b"], 4.0
    else:
        coef = params["a1"]

    def rhs(r, y):
        u, du = y
        return du, -(N - 1.0) * du / r + mu * u - coef * r ** a * abs(u) ** (p - 2.0) * u

    r0 = 1e-6
    sol = solve_ivp(rhs, (r0, 0.995), (amplitude, 0.0), rtol=1e-10, atol=1e-12,
                    dense_output=True)
    u = sol.sol(np.linspace(r0, 0.995, 20001))[0]
    s = np.sign(u)
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


# -- operations ---------------------------------------------------------------

class Runner:
    """Runs and checks the operations of one workload in a work directory."""

    def __init__(self, workdir, reference):
        self.work = Path(workdir)
        self.ref = reference
        self.tracer = None
        self.cpu_s = 0.0  # CPU seconds spent inside timed program calls
        import henon_morse.cli  # noqa: F401  (loads every submodule)
        import numpy

        self.hm = henon_morse
        self.np = numpy

    def cli(self, argv):
        import contextlib
        import io

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.hm.cli.main(argv)

    def timed(self, fn, *args):
        """(fn(*args), wall seconds); the CPU seconds are added to ``cpu_s``."""
        cpu0, t0 = time.process_time(), time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        self.cpu_s += time.process_time() - cpu0
        return result, elapsed

    # setup ---------------------------------------------------------------
    def prepare(self, cases, tag):
        """Write each case's inputs under ``tag``; certify profiles are solved and saved.

        Returns the seconds spent.
        """
        t0 = time.perf_counter()
        for case in cases:
            cdir = self.work / tag / case["id"]
            cdir.mkdir(parents=True, exist_ok=True)
            case.setdefault("dirs", {})[tag] = cdir
            kind = case["kind"]
            if kind == "liouville":
                continue
            params = dict(case["params"])
            if kind == "sweep":
                params.update(alphas=case["alphas"], branches=["positive"])
            elif kind == "row":
                params.update(alphas=[case["alpha"]], branches=[case["branch"]])
            (cdir / "params.json").write_text(json.dumps(params))
            if kind == "profile":
                self.cli(["solve", "--params", str(cdir / "params.json"), "--out", str(cdir)])
        return time.perf_counter() - t0

    def check_setup(self, cases, tag):
        """Problems with the profiles ``prepare`` stored under ``tag``."""
        problems = []
        for case in cases:
            if case["kind"] != "profile":
                continue
            ref = self.ref["certify"][case["id"]]
            try:
                amp = json.loads((case["dirs"][tag] / "profile.json").read_text())["amplitude"]
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{case['id']}: no stored profile ({exc})")
                continue
            if not close(amp[0], ref["amplitude"][0]):
                problems.append(f"{case['id']}: amplitude {amp[0]!r} != {ref['amplitude'][0]!r}")
        return problems

    # timed operations ---------------------------------------------------
    def run_case(self, case, tag):
        """Run one case; returns [(op id, program seconds, problems)]."""
        cdir = case["dirs"][tag]
        if self.tracer is not None:
            self.tracer.item = case["id"]
        kind = case["kind"]
        if kind == "sweep":
            return self._headline(case, cdir)
        if kind == "row":
            return [self._branch_row(case, cdir)]
        if kind == "liouville":
            return [self._liouville(case, cdir)]
        return [self._certify_profile(case, cdir)]

    def sweep(self, cdir):
        out = cdir / "out"
        (out / "sweep.json").unlink(missing_ok=True)
        rc, elapsed = self.timed(self.cli, ["sweep", "--params", str(cdir / "params.json"),
                                            "--out", str(out), "--workers", "1"])
        payload = json.loads((out / "sweep.json").read_text()) if rc == 0 else None
        return elapsed, rc, payload

    def _headline(self, case, cdir):
        elapsed, rc, payload = self.sweep(cdir)
        ref = self.ref["headline_sweep"]
        if payload is None:
            return [(f"headline@a{a:g}", elapsed / len(case["alphas"]), [f"sweep exited {rc}"])
                    for a in case["alphas"]]
        rows = {r["alpha"]: r for r in payload["rows"]}
        ops = []
        for alpha in sorted(case["alphas"]):
            key = f"{alpha:g}"
            problems = self._check_row(rows.get(alpha), ref["rows"][key])
            onset = payload["summary"]["smallest_alpha_with_index_above_1"]
            if alpha == ref["onset"] and onset != ref["onset"]:
                problems.append(f"symmetry-breaking onset moved: {onset}")
            ops.append((f"headline@a{key}", elapsed / len(case["alphas"]), problems))
        return ops

    def _check_row(self, row, ref, params=None):
        if row is None:
            return ["row missing"]
        if ref["status"] == "failed":
            if row["status"] != "failed" or not row["reason"].startswith(ref["error"] + ":"):
                return [f"expected {ref['error']}, got {row['status']} {row['reason']!r}"]
            return []
        problems = []
        if row["status"] != "ok":
            problems.append(f"status {row['status']}: {row['reason']}")
        if row.get("total_morse_index") != ref["total_morse_index"]:
            problems.append(f"index {row.get('total_morse_index')} != {ref['total_morse_index']}")
        if row.get("mesh_stable") is not True:
            problems.append("not mesh-stable")
        amp = row.get("amplitude")
        if amp is None or not close(amp[0], ref["amplitude"][0]):
            problems.append(f"amplitude {amp} != {ref['amplitude']}")
        elif params is not None:
            nodes = node_count({**params, "alpha": row["alpha"]}, amp[0])
            if nodes != ref["nodes"]:
                problems.append(f"node count {nodes} != {ref['nodes']}")
        return problems

    def _branch_row(self, case, cdir):
        elapsed, rc, payload = self.sweep(cdir)
        if payload is None:
            return case["id"], elapsed, [f"sweep exited {rc}"]
        ref = self.ref["branch_mix"][case["id"]]
        return case["id"], elapsed, self._check_row(payload["rows"][0], ref, case["params"])

    def weighted_mu_min(self, profile_path, ell):
        """Weighted half-line eigen-solve of a stored profile on sector ``ell``."""
        hm = self.hm
        profile = hm.io.load_profile(profile_path)
        tp = hm.halfline.transform_profile(profile)
        U = hm.halfline.stability_potential(tp)
        N = profile.params.N
        grow = self.np.exp(tp.beta * N * U.tgrid)
        Ug = hm.halfline.MatrixPotential(U.tgrid, grow * U.m11, grow * U.m12, grow * U.m22)
        lam = hm.spectral.lambda_ell(ell, N) * tp.beta ** 2
        mu_min, _ = hm.halfline.weighted_eigen_min(Ug, tp.gamma, tp.beta * N, lam, mesh=1000)
        return mu_min

    def _certify_profile(self, case, cdir):
        report_path = cdir / "verify.json"
        report_path.unlink(missing_ok=True)
        rc, elapsed = self.timed(self.cli, ["verify", "--profile", str(cdir / "profile"),
                                            "--out", str(report_path)])
        ref = self.ref["certify"][case["id"]]
        problems = []
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        if rc != 0 or not report.get("pass"):
            problems.append(f"verify exited {rc}, pass={report.get('pass')}")
        morse = report.get("morse", {})
        if morse.get("total") != ref["total_morse_index"]:
            problems.append(f"index {morse.get('total')} != {ref['total_morse_index']}")
        ell = next((e["ell"] for e in morse.get("per_ell", []) if e["negatives"] == 0),
                   ref["stable_ell"])

        mu_min, seconds = self.timed(self.weighted_mu_min, cdir / "profile", ell)
        elapsed += seconds
        if not close(mu_min, ref["mu_min"]):
            problems.append(f"mu_min {mu_min!r} != {ref['mu_min']!r}")
        if mu_min < 0:
            problems.append(f"stable sector ell={ell} has mu_min {mu_min} < 0")
        return case["id"], elapsed, problems

    def _liouville(self, case, cdir):
        out = cdir / "out"
        (out / "liouville.json").unlink(missing_ok=True)
        rc, elapsed = self.timed(self.cli, ["liouville", "--energy", repr(case["energy"]),
                                            "--out", str(out)])
        ref = self.ref["liouville"][f"{case['energy']:g}"]
        problems = [] if rc == 0 else [f"liouville exited {rc}"]
        try:
            windows = json.loads((out / "liouville.json").read_text())["windows"]
        except (OSError, ValueError, KeyError) as exc:
            return case["id"], elapsed, problems + [f"no liouville.json ({exc})"]
        if len(windows) != len(ref["q_min"]):
            problems.append(f"{len(windows)} windows, expected {len(ref['q_min'])}")
        for w, q_ref in zip(windows, ref["q_min"]):
            if not (w["witness_negative"] and w["sound"]):
                problems.append(f"window {w['window']} not a sound negative witness")
            if not close(w["q_min"], q_ref):
                problems.append(f"window {w['window']} q_min {w['q_min']!r} != {q_ref!r}")
        return case["id"], elapsed, problems

