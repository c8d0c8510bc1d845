"""Hash every LP outcome of the benchmark's workloads and compare with pinned values.

Run from the root of a checkout::

    python3 tests/outcome_hashes.py

It wraps ``rip.lp.solve``, asks every question of ``corpus(2026)``,
``lattice(1)`` and ``models(2026)`` once, and prints, per workload and
numeric mode, the SHA-256 of the ``repr`` of every outcome in call order,
the SHA-256 of the sorted per-outcome digests, the number of programs
solved and their pivots.  Pivots and outcomes are meant to stay the same
through a change to the solver's internals.  A change that only reorders
the solves moves the ordered hash and keeps the order-free one, which is
how such a change shows that nothing else moved.  The script exits 1, and
names what differed, when either hash, the program count or the pivot
count differs from its pinned value.  The pinned values hold on Python
3.10, 3.11, 3.12 and 3.13: the solver adds float sums left to right
itself, since the built-in ``sum`` adds floats with compensation from
Python 3.12 on.  The workloads are read from ``perfbench/`` and nothing
is written there: ``models`` writes its model files into a temporary
directory.
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

# (workload, mode) -> (sha256 of the outcomes' reprs in call order,
#                     sha256 of their sorted per-outcome digests, programs, pivots)
PINNED = {
    ("corpus", "rational"): (
        "4840bef4dbfb57bd9f736d51bdcea9f01a032d5427e0afb54852cedb82b3a5c2",
        "4a79eb948cd07132f52048271c265d6909ab06f4756ea33a28ee14f50ea104ab",
        614, 5088
    ),
    ("corpus", "float"): (
        "e860d8de940efd4d64195a243c1457642fbcd55f262595ac524a79454aad3a8e",
        "94c85cb6a6ec6c0be4d09223473642a6e686657b542c78141b78fcb3e17bff70",
        614, 5066
    ),
    ("lattice", "rational"): (
        "4458d2ce5169040ee5704723970baeea82f2631a630b002c5ff788f82411ae0d",
        "7f32a13c870a4844fd4c8825ccfc3ded9037ce8039382a84e6244ec12fd508f4",
        26, 758
    ),
    ("lattice", "float"): (
        "987c225b882fc2aef19612cafe84645a11e2414f0aec8ac5009f8aded7d2323a",
        "f9f73d6f19154c9645d847d1b0e7eb1d483a7dd6455aad4e5c6487d0198723a0",
        2, 894
    ),
    ("models", "rational"): (
        "c4d230805476d0fbea539bfe08f895661c365b8fc21c877844fd7a501995cdd4",
        "9ba9c14e82ecc48b5948b9788db3a361a893dda1676f4da1609a7ee3ae5aec4a",
        73, 1500
    ),
    ("models", "float"): (
        "47c78c530978914872dfaf45171943a992ff4860afa351e22e08c745f694e40d",
        "adee0adf9d973e36d89543fe0f9c233728c3446cdc107a24c709f9dc9d0861db",
        12, 1142
    ),
}
SEEDS = {"corpus": 2026, "lattice": 1, "models": 2026}


def outcome_hashes(name, seed):
    """``{mode: (ordered hash, order-free hash, programs, pivots)}`` over one pass of a workload."""
    tallies = {}
    solve = rip.lp.solve

    def hashed(lp, ops=rip.RATIONAL_OPS):
        out = solve(lp, ops)
        text = repr(out).encode()
        digest, each = tallies.setdefault(ops.mode, (hashlib.sha256(), []))
        digest.update(text)
        each.append((hashlib.sha256(text).hexdigest(), out.pivots))
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
    return {
        mode: (
            digest.hexdigest(),
            hashlib.sha256("".join(sorted(h for h, _ in each)).encode()).hexdigest(),
            len(each),
            sum(pivots for _, pivots in each),
        )
        for mode, (digest, each) in tallies.items()
    }


FIELDS = ("ordered hash", "order-free hash", "programs", "pivots")


def main() -> int:
    differ = 0
    for name, seed in SEEDS.items():
        hashes = outcome_hashes(name, seed)
        for mode in ("rational", "float"):
            got, want = hashes.get(mode, ("none", "none", 0, 0)), PINNED[(name, mode)]
            moved = [field for field, a, b in zip(FIELDS, got, want) if a != b]
            differ += bool(moved)
            print(
                f"{name}({seed}) {mode}: {got[0]} {got[1]} {got[2]} programs {got[3]} pivots "
                + (f"DIFFERS in {', '.join(moved)}" if moved else "ok")
            )
            if moved:
                print(f"  pinned: {want}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
