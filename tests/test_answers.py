"""Answer pin: one hash of run_pipeline's answers on a fixed corpus.

A change that claims the same answers leaves ANSWERS_DIGEST as it is; a
change that moves answers on purpose (a better retiming or fill) updates it
and says so.  `python tests/test_answers.py` prints the digest and each
case's power.
"""
import hashlib
import json
import random

from retislack import generate_random, make_curve, run_pipeline
from retislack.recovery import min_slack_period
from conftest import CURVE4_PAIRS, curves_for, mixed_curve

ANSWERS_DIGEST = "526a23a4f4d671a91f0a1a9e50ab92ba69120ef78c693ad472087d9891f6fae5"


def corpus():
    """(name, circuit, curves, period): seeds 42 and 7 at 30, 150 and 650
    gates, the four-level default curve and per-gate 1-7-level curves, at
    Tmin and ceil(1.3 Tmin)."""
    for seed in (42, 7):
        for n in (30, 150, 650):
            c = generate_random(n, edge_density=2.2, ff_prob=0.4, seed=seed)
            rng = random.Random(seed * 1000 + n)
            for kind, curves in (
                    ("default", curves_for(c, CURVE4_PAIRS)),
                    ("mixed", {j: make_curve(mixed_curve(rng)) for j in range(c.n)})):
                tmin, _ = min_slack_period(c, curves)
                for T in (tmin, -(-tmin * 13 // 10)):
                    yield f"s{seed}-n{n}-{kind}-T{T}", c, curves, T


def answer(c, curves, T):
    """Levels, labels, periods and every diagnostic but the stage times."""
    res = run_pipeline(c, curves, T, check=True)
    diag = {k: v for k, v in res.diagnostics.items() if k != "stages"}
    return [res.assignment.levels, res.retiming, res.period,
            res.achieved_period, diag]


def digest():
    h = hashlib.sha256()
    powers = {}
    for name, c, curves, T in corpus():
        a = answer(c, curves, T)
        h.update(json.dumps([name, a], sort_keys=True).encode())
        powers[name] = sum(curves[j].powers[q] for j, q in enumerate(a[0]))
    return h.hexdigest(), powers


def test_answers_match_the_pinned_digest():
    got, powers = digest()
    assert got == ANSWERS_DIGEST, powers


if __name__ == "__main__":
    got, powers = digest()
    print(got)
    for name, p in powers.items():
        print(f"{name:28s} {p}")
