"""The paper's regime, alpha -> infinity: N = 2 and 3, p = 4, alpha = 20 ... 640.

Every mu = 0 row is certified on its (M, 0) image, so the whole regime
certifies at the default grid, and the index rate of the paper's theorem
is read off in closed form from what the sweep reports:

* N = 2: M = 2 at every alpha, and sector k turns negative at the onset
  alpha_k, so the positive index is 1 + 2 #{k : alpha_k < alpha};
* N = 3: the positive branch counts one negative direction in every sector
  l with l(l+1) < |nu_1(3, alpha)|, of multiplicity 2l + 1, so its index is
  L^2 with L = #{l >= 0 : l(l+1) < |nu_1|}.  The row's ``nu_hat`` bracket
  is already nu_1(3, alpha) = beta^2 nu_1(M).
"""

import json

import pytest

from henon_morse.cli import main

ALPHAS = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
BRANCHES = ["positive", "nodal:1", "nodal:2"]


@pytest.fixture(scope="module")
def regime(tmp_path_factory):
    """The two sweeps' rows, by N and then by (branch, alpha)."""
    out = {}
    for N in (2, 3):
        work = tmp_path_factory.mktemp(f"N{N}")
        params = {"N": N, "mu1": 0.0, "mu2": 0.0, "family": "pure_power", "p": 4,
                  "alphas": ALPHAS, "branches": BRANCHES}
        (work / "params.json").write_text(json.dumps(params))
        assert main(["sweep", "--params", str(work / "params.json"), "--out", str(work)]) == 0
        payload = json.loads((work / "sweep.json").read_text())
        out[N] = {(r["branch"], r["alpha"]): r for r in payload["rows"]}
        out[N]["onsets"] = payload["summary"]["onset_alphas"]
    return out


@pytest.mark.parametrize("N", [2, 3])
def test_every_row_of_the_paper_regime_certifies(regime, N):
    rows = {key: row for key, row in regime[N].items() if key != "onsets"}
    assert len(rows) == 18
    bad = [(k, r["status"], r["reason"]) for k, r in rows.items()
           if not (r["status"] == "ok" and r["mesh_stable"] and not r["morse"]["warnings"])]
    assert not bad


def test_planar_positive_index_counts_the_onsets(regime):
    onsets = regime[2]["onsets"]["positive"]
    assert len(onsets) >= 246  # the onsets alpha_k below 640
    indices = []
    for alpha in ALPHAS:
        # no enclosure holds alpha, so its two ends give the same count
        assert not any(lo <= alpha < hi for lo, hi in onsets)
        below = sum(hi <= alpha for _, hi in onsets)
        assert below == sum(lo < alpha for lo, _ in onsets)
        indices.append(regime[2][("positive", alpha)]["total_morse_index"])
        assert indices[-1] == 1 + 2 * below
    assert indices == [17, 33, 63, 125, 247, 493]


def test_three_dimensional_positive_index_is_a_square(regime):
    def degrees_below(x):
        # #{l >= 0 : l(l+1) < x}
        ell = 0
        while ell * (ell + 1) < x:
            ell += 1
        return ell

    sides = []
    for alpha in ALPHAS:
        row = regime[3][("positive", alpha)]
        (nu_1,) = [b for b in row["morse"]["nu_hat"] if b["j"] == 1]
        # nu_1 in [lo, hi), so |nu_1| in (|hi|, |lo|]: L is #{l : l(l+1) < |lo|} and
        # #{l : l(l+1) <= |hi|}.  The ends are ladder points -l(l+1), up to the rounding
        # of their beta^2 scaling, hence the factors 1 -+ 1e-12
        lo, hi = nu_1["mesh"]
        L = degrees_below(-lo * (1.0 - 1e-12))
        assert L == degrees_below(-hi * (1.0 + 1e-12) + 0.5)
        assert row["total_morse_index"] == L * L
        sides.append(L)
    assert sides == [9, 17, 32, 63, 125, 248]
