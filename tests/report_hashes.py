"""Hash the CLI's reports on the benchmark's model files and compare with pinned values.

Run from the root of a checkout::

    python3 tests/report_hashes.py

It runs ``rip price``, ``hedge``, ``duality``, ``chain``, ``info-value`` and
``dpp --t1 0..3``, each in both numeric modes, on every
``perfbench/models/*.yaml`` and on the ``yaml`` block of ``README.md``
(run as ``market.yaml``): 18 reports per model file, 126 in all.  Per model
file it prints the SHA-256 over every run's arguments, stdout, stderr and
exit code, in a fixed order, and the number of runs; it exits 1 when a
hash or a count differs from its pinned value.  Default reports are meant
to stay byte-identical through a change that does not say otherwise.

The commands run in this process through ``rip.cli.main``.  The model files
are copied into a temporary directory and run from there under their own
names, so no path of the checkout reaches a report, and nothing is written
anywhere else.
"""

import contextlib
import glob
import hashlib
import io
import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]
sys.dont_write_bytecode = True  # leave no cache files in the checkout

import rip.cli  # noqa: E402

# model file -> (sha256 over its runs, runs)
PINNED = {
    "arrival.yaml": ("032386786dd98fe5a309284b94c79132e9b4747f6dafcc95c80e7e1f4f523901", 18),
    "book.yaml": ("f7c1de2132bc13417514882ec767a1d0f500718aa84dedfec15a4d5a2a6a206e", 18),
    "label.yaml": ("0aad5610d8c419b8b8b80e7dc53ef171701739930928cfc8fba3f64c6448c9eb", 18),
    "market.yaml": ("7b4e4ccd4fde03f21189169a26cffa3b0a6961cf48466806e8b942ee341ea1f4", 18),
    "split.yaml": ("d8dd7b89199660e4d6aeb31670cf7c07e8432cc4a987db971ff5b5999b8510e0", 18),
    "traded.yaml": ("ebdb932b6bcb1bf1d22040f1b39cca702c6c4de7d3f0c56477a227557ab98030", 18),
    "wide.yaml": ("524d6532ee84171ae8ab2bb46ecead5160d33501891cdd0e080c5f3fc30332d6", 18),
}
COMMANDS = (
    ["price"], ["hedge"], ["duality"], ["chain"], ["info-value"],
    *(["dpp", "--t1", str(t1)] for t1 in range(4)),
)
MODES = ("rational", "float")


def readme_model() -> str:
    """The one ``yaml`` block of README.md."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        blocks = re.findall(r"^```yaml\n(.*?)^```$", handle.read(), re.M | re.S)
    if len(blocks) != 1:
        raise SystemExit(f"README.md holds {len(blocks)} yaml blocks, expected 1")
    return blocks[0]


def run(argv):
    """``(stdout, stderr, exit code)`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rip.cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad flags this way
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def report_hashes(workdir):
    """``{model file: (hash, runs)}`` over every command and mode."""
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "models", "*.yaml"))):
        shutil.copy(path, workdir)
    with open(os.path.join(workdir, "market.yaml"), "w", encoding="utf-8") as handle:
        handle.write(readme_model())
    hashes = {}
    for name in sorted(os.listdir(workdir)):
        digest, runs = hashlib.sha256(), 0
        for mode in MODES:
            for command in COMMANDS:
                argv = [*command, "--model", name, "--mode", mode]
                digest.update(repr((argv, *run(argv))).encode())
                runs += 1
        hashes[name] = (digest.hexdigest(), runs)
    return hashes


def main() -> int:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            hashes = report_hashes(workdir)
        finally:
            os.chdir(here)
    differ = 0
    for name in sorted(set(hashes) | set(PINNED)):
        got, want = hashes.get(name, ("none", 0)), PINNED.get(name, ("none", 0))
        verdict = "ok" if got == want else "DIFFERS"
        differ += got != want
        print(f"{name}: {got[0]} {got[1]} runs {verdict}")
        if got != want:
            print(f"  pinned: {want}")
    print(f"{sum(runs for _, runs in hashes.values())} runs in all")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
