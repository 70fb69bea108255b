"""Re-derive every reference value the benchmark's checks compare against.

    python3 crnbench/reference.py    # about 40 s, most of it the chain-50 count

Run from the root of a checkout.  Everything except the final chain-50
count is computed with ``checks.py`` alone (bitmasks, exact ranks, HiGHS),
without importing ``crnsiphon``:

* chain counts: the minimal-vertex-cover dynamic program for chain-44 (the
  timed length) and chain-50, the recursion N(s) = N(s-2) + N(s-3), and the
  published chain-50 total and histogram;
* the 5x5 grid: minimal siphons by brute force over all 2**25 subsets,
  relevance by the dual LP, symmetry orbits, face dimensions at the
  all-ones start, and which siphons the two perturbed starts hit;
* the random batch: the shares of networks that are strongly connected,
  whose cone is not pointed, or that have no conservation law.

The last step times ``crnsiphon siphons --count-only --histogram`` on
chain-50 (about 34 s) and compares it with the published values.
"""

from __future__ import annotations

import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

CHAIN50_TOTAL = 1_221_537
CHAIN50_HISTOGRAM = {
    25: 26, 26: 2300, 27: 42504, 28: 245157, 29: 497420,
    30: 352716, 31: 77520, 32: 3876, 33: 18,
}


def grid_minimal_siphons(s: int, masks: list[tuple[int, int]]) -> list[int]:
    """Every siphon among the 2**s subsets, in chunks of 2**16, reduced to
    the inclusion-minimal ones with the bitmask fixpoint."""
    lo = np.arange(1 << 16, dtype=np.int64)
    found: list[int] = []
    for hi in range(1 << (s - 16)):
        z = lo | (hi << 16)
        ok = z != 0
        for reac, prod in masks:
            ok &= ((z & prod) == 0) | ((z & reac) != 0)
        found.extend(int(v) for v in z[ok])
    minimal: list[int] = []
    for z in sorted(found, key=lambda m: (m.bit_count(), m)):
        if not any(k & z == k for k in minimal):
            minimal.append(z)
    return minimal


def strongly_connected(reactions) -> bool:
    complexes = {}
    succ: dict[int, set[int]] = {}
    for lhs, rhs in reactions:
        a = complexes.setdefault(tuple(sorted(lhs.items())), len(complexes))
        b = complexes.setdefault(tuple(sorted(rhs.items())), len(complexes))
        succ.setdefault(a, set()).add(b)
    for root in range(len(complexes)):
        seen, todo = {root}, [root]
        while todo:
            for w in succ.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(complexes):
            return False
    return True


def cone_pointed(s: int, stoich: list[list[int]]) -> bool:
    """The cone spanned by the conservation basis columns is pointed exactly
    when some conservation law is positive on every species (vacuously
    when there is no law)."""
    if checks.exact_rank(stoich) == s:
        return True
    res = linprog(
        np.zeros(s), A_eq=np.array(stoich, dtype=float), b_eq=np.zeros(len(stoich)),
        bounds=(1, None), method="highs",
    )
    return res.status == 0


def chain_values() -> None:
    print("== chain counts (minimal vertex covers of the path)")
    for s in (inputs.CHAIN_LENGTH, 50):
        hist = checks.chain_cover_histogram(s)
        print(f"chain-{s}: total {sum(hist.values())}, histogram {hist}")
    hist50 = checks.chain_cover_histogram(50)
    print("chain-50 matches the published total and histogram:",
          sum(hist50.values()) == CHAIN50_TOTAL and hist50 == CHAIN50_HISTOGRAM)
    print("N(s) = N(s-2) + N(s-3) for 5 <= s <= 50:", checks.chain_recursion_holds(50))


def grid_values() -> None:
    print("== 5x5 grid")
    reactions = inputs.grid_reactions()
    masks = checks.reaction_masks(reactions)
    stoich = checks.stoichiometry(25, reactions)
    symmetries = inputs.grid_symmetries()
    start = time.perf_counter()
    minimal = grid_minimal_siphons(25, masks)
    print(f"minimal siphons: {len(minimal)} (brute force, {time.perf_counter() - start:.1f} s)")
    print("closed under the 8 symmetries:",
          all(checks.permuted(z, p) in set(minimal) for z in minimal for p in symmetries))
    relevant = [z for z in minimal if checks.relevant_by_dual(stoich, z)]
    orbits = sorted({checks.orbit(z, symmetries) for z in relevant}, key=len)
    print(f"relevant: {len(relevant)}, orbit sizes {[len(o) for o in orbits]}")
    starts = inputs.grid_starts()
    for cells, _ in checks.GRID_CLASSES:
        z = checks.grid_mask(cells)
        dim = checks.face_dimension(stoich, starts["ones"], z) if checks.face_nonempty(
            stoich, starts["ones"], z) else "empty"
        print(f"face dimension at all ones of {' '.join(cells)}: {dim}")
    for name in ("reduced", "enlarged"):
        hits = [z for z in relevant if checks.face_nonempty(stoich, starts[name], z)]
        print(f"{name}-center start hits {len(hits)} relevant siphons, sizes "
              f"{sorted(z.bit_count() for z in hits)}")


def batch_values() -> None:
    print("== random batch")
    batch = inputs.random_batch()
    n = len(batch)
    sc = sum(strongly_connected(r) for _, r, _ in batch)
    pointed = 0
    no_law = 0
    for s, reactions, _ in batch:
        stoich = checks.stoichiometry(s, reactions)
        pointed += cone_pointed(s, stoich)
        no_law += checks.exact_rank(stoich) == s
    species = [s for s, _, _ in batch]
    print(f"{n} networks, seed {inputs.BATCH_SEED}, species {min(species)}..{max(species)}")
    print(f"strongly connected: {sc}/{n} ({sc / n:.1%})")
    print(f"cone not pointed: {n - pointed}/{n} ({(n - pointed) / n:.1%})")
    print(f"no conservation law: {no_law}/{n} ({no_law / n:.1%})")


def program_chain50() -> None:
    print("== crnsiphon on chain-50")
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    from crnsiphon import cli

    names = [f"c{i}" for i in range(1, 51)]
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path = Path(tmp) / "chain50.crn"
        path.write_text(inputs.network_text(names, inputs.chain_reactions(50)), encoding="utf-8")
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.run(["siphons", "--count-only", "--histogram", str(path)], out=out)
        elapsed = time.perf_counter() - start
    try:
        checks.check_chain_output(CHAIN50_HISTOGRAM, out.getvalue())
        verdict = "matches the published total and histogram"
    except checks.CheckFailed as exc:
        verdict = f"DIFFERS: {exc}"
    print(f"exit {code} in {elapsed:.1f} s; {verdict}")


def main() -> int:
    chain_values()
    grid_values()
    batch_values()
    program_chain50()
    return 0


if __name__ == "__main__":
    sys.exit(main())
