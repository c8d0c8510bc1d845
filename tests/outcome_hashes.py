"""Hash every LP outcome of the benchmark's workloads and compare with pinned values.

Run from the root of a checkout::

    python3 tests/outcome_hashes.py

It wraps ``rip.lp.solve``, asks every question of ``corpus(2026)``,
``lattice(1)`` and ``models(2026)`` once, and prints, per workload and
numeric mode, the SHA-256 of the ``repr`` of every outcome in call order,
the number of programs solved and their pivots.  Pivots and outcomes are
meant to stay the same through a change to the solver's internals; the
script exits 1 when a hash, program count or pivot count differs from its
pinned value.  The pinned values hold on Python 3.10, 3.11, 3.12 and 3.13:
the solver adds float sums left to right itself, since the built-in ``sum``
adds floats with compensation from Python 3.12 on.  The workloads are read from ``perfbench/`` and nothing is
written there: ``models`` writes its model files into a temporary directory.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark

import rip  # noqa: E402
import rip.cli  # noqa: E402
import rip.lp  # noqa: E402
import workloads  # noqa: E402

# (workload, mode) -> (sha256 of the outcomes' reprs, programs, pivots)
PINNED = {
    ("corpus", "rational"): (
        "4840bef4dbfb57bd9f736d51bdcea9f01a032d5427e0afb54852cedb82b3a5c2", 614, 5088
    ),
    ("corpus", "float"): (
        "e860d8de940efd4d64195a243c1457642fbcd55f262595ac524a79454aad3a8e", 614, 5066
    ),
    ("lattice", "rational"): (
        "4458d2ce5169040ee5704723970baeea82f2631a630b002c5ff788f82411ae0d", 26, 758
    ),
    ("lattice", "float"): (
        "987c225b882fc2aef19612cafe84645a11e2414f0aec8ac5009f8aded7d2323a", 2, 894
    ),
    ("models", "rational"): (
        "dcdf7227cc252f7732a7c9c71157d42282acdddd36fe20e560719c562f97529b", 73, 1500
    ),
    ("models", "float"): (
        "47c78c530978914872dfaf45171943a992ff4860afa351e22e08c745f694e40d", 12, 1142
    ),
}
SEEDS = {"corpus": 2026, "lattice": 1, "models": 2026}


def outcome_hashes(name, seed):
    """``{mode: (hash, programs, pivots)}`` over one pass of a workload."""
    tallies = {}
    solve = rip.lp.solve

    def hashed(lp, ops=rip.RATIONAL_OPS):
        out = solve(lp, ops)
        digest, programs, pivots = tallies.get(ops.mode) or (hashlib.sha256(), 0, 0)
        digest.update(repr(out).encode())
        tallies[ops.mode] = (digest, programs + 1, pivots + out.pivots)
        return out

    rip.lp.solve = hashed  # solve_checked looks the name up in rip.lp
    try:
        with tempfile.TemporaryDirectory() as workdir:
            workload = (
                workloads.models(seed, workdir) if name == "models" else getattr(workloads, name)(seed)
            )
            for question in workload.questions:
                workload.ask(rip, question)
    finally:
        rip.lp.solve = solve
    return {mode: (d.hexdigest(), n, p) for mode, (d, n, p) in tallies.items()}


def main() -> int:
    differ = 0
    for name, seed in SEEDS.items():
        hashes = outcome_hashes(name, seed)
        for mode in ("rational", "float"):
            got, want = hashes.get(mode, ("none", 0, 0)), PINNED[(name, mode)]
            verdict = "ok" if got == want else "DIFFERS"
            differ += got != want
            print(f"{name}({seed}) {mode}: {got[0]} {got[1]} programs {got[2]} pivots {verdict}")
            if got != want:
                print(f"  pinned: {want}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
