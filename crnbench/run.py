"""End-to-end benchmark of crnsiphon, run from the root of a checkout.

    python3 crnbench/run.py --workload grid5-starts --seed 1 --seconds 30 --trace 0

Each timed operation is one in-process ``crnsiphon.cli.run(...)`` call (two
for ``random-batch``) on files this script wrote; the program is imported
from the checkout's ``src`` directory.  Operations repeat in whole rounds
until ``--seconds`` would be exceeded.  Every output is then checked by
``checks.py``, which shares no code with the program.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``op_p50_s``,
``ops_per_s``, ``peak_rss_mb``, ``setup_s``); with ``--trace 1`` they are
the per-layer ones from ``spans.py``.  Times are CPU seconds scaled to a
reference host speed (see :class:`HostSpeed`).  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".crnbench-run"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_STARTS = 21
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import crnsiphon
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        crnsiphon.parse_network(fh.read())
"""
WARMUP_NETWORK = "species X, Y\nX -> Y\nY -> X\n"
UNSET_ENV = ("SIPHON_THREADS", "SIPHON_BUDGET_MS")
# CPU seconds of one ``probe()`` on the reference host (a 2-vCPU Xeon VM at
# 2.1 GHz, CPython 3.11.7) when it runs at its quiet speed.
PROBE_REF_S = 0.0028
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.5


class Op:
    """One timed operation: the argument lists passed to ``cli.run`` in
    turn, and what the checks need to know about the input."""

    def __init__(self, argvs: list[list[str]], **context):
        self.argvs = argvs
        self.context = context
        self.cpu = 0.0  # without the probes that ran inside it
        self.began = self.ended = 0.0  # perf_counter
        self.seconds = 0.0  # self.cpu at the reference speed
        self.stored: Path | None = None
        self.outputs: list[tuple[int, str, str]] = []


# ---------------------------------------------------------------------------
# workloads


class GridStarts:
    """``analyze`` on the 5x5 adjacent-minors grid with the paper's starts."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.reactions = inputs.grid_reactions()
        self.starts = inputs.grid_starts()
        self.symmetries = inputs.grid_symmetries()

    def setup_inputs(self) -> list[Path]:
        path = self.workdir / "setup.crn"
        names = inputs.species_names(self.rng, 25)
        path.write_text(inputs.network_text(names, self.reactions), encoding="utf-8")
        return [path]

    def next_round(self) -> list[Op]:
        rng = self.rng
        names = inputs.species_names(rng, 25)
        k_ones, k_reduced, k_enlarged = inputs.distinct_scales(rng, 3)
        ones = inputs.scaled(self.starts["ones"], k_ones)
        reduced = inputs.scaled(self.starts["reduced"], k_reduced)
        enlarged = inputs.scaled(self.starts["enlarged"], k_enlarged)
        net = self.workdir / "grid.crn"
        omega = self.workdir / "omega.txt"
        symmetry = self.workdir / "symmetry.txt"
        net.write_text(inputs.network_text(names, self.reactions), encoding="utf-8")
        omega.write_text(
            inputs.start_text(reduced) + "\n" + inputs.start_text(enlarged) + "\n", encoding="utf-8"
        )
        symmetry.write_text(
            "".join(" ".join(names[p[i]] for i in range(25)) + "\n" for p in self.symmetries),
            encoding="utf-8",
        )
        argv = [
            "analyze", "--c0", inputs.start_text(ones), "--omega", str(omega),
            "--symmetry", str(symmetry), str(net),
        ]
        starts = [(0, ones, self.starts["ones"]), (1, reduced, self.starts["reduced"]),
                  (2, enlarged, self.starts["enlarged"])]
        return [Op([argv], names=names, starts=starts)]

    def checker(self):
        import checks

        facts = checks.NetworkFacts(25, self.reactions)

        def check(op: Op) -> None:
            names = op.context["names"]
            report = checks.check_report(facts, names, op.outputs[0][1], op.context["starts"])
            checks.check_grid_paper_values(report, names, self.symmetries)

        return check


class ChainCount:
    """``siphons --count-only --histogram`` on one reversible chain; the
    input file is the same for every operation of a run."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.s = inputs.CHAIN_LENGTH
        self.path = workdir / "chain.crn"
        names = inputs.species_names(rng, self.s)
        self.path.write_text(
            inputs.network_text(names, inputs.chain_reactions(self.s)), encoding="utf-8"
        )

    def setup_inputs(self) -> list[Path]:
        return [self.path]

    def next_round(self) -> list[Op]:
        return [Op([["siphons", "--count-only", "--histogram", str(self.path)]])]

    def checker(self):
        import checks

        checks.require(checks.chain_recursion_holds(self.s), "chain recursion fails")
        expected = checks.chain_cover_histogram(self.s)

        def check(op: Op) -> None:
            checks.check_chain_output(expected, op.outputs[0][1])

        return check


class RandomBatch:
    """``analyze --c0`` then ``vertices --c0`` on each network of a fixed
    random batch; one round is one pass over the whole batch."""

    def __init__(self, rng: random.Random, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.batch = inputs.random_batch()

    def setup_inputs(self) -> list[Path]:
        paths = []
        for k, (s, reactions, _) in enumerate(self.batch):
            path = self.workdir / f"setup{k}.crn"
            names = inputs.species_names(self.rng, s)
            path.write_text(inputs.network_text(names, reactions), encoding="utf-8")
            paths.append(path)
        return paths

    def next_round(self) -> list[Op]:
        ops = []
        for k, (s, reactions, c0) in enumerate(self.batch):
            names = inputs.species_names(self.rng, s)
            scale = self.rng.randint(2, inputs.MAX_SCALE)
            start = inputs.scaled(c0, scale)
            path = self.workdir / f"net{k}.crn"
            path.write_text(inputs.network_text(names, reactions), encoding="utf-8")
            text = inputs.start_text(start)
            argvs = [["analyze", "--c0", text, str(path)], ["vertices", "--c0", text, str(path)]]
            ops.append(Op(argvs, index=k, names=names, start=start))
        return ops

    def checker(self):
        import checks

        facts: dict[int, checks.NetworkFacts] = {}

        def check(op: Op) -> None:
            k = op.context["index"]
            s, reactions, c0 = self.batch[k]
            if k not in facts:
                facts[k] = checks.NetworkFacts(s, reactions)
            names, start = op.context["names"], op.context["start"]
            report = checks.check_report(facts[k], names, op.outputs[0][1], [(0, start, c0)])
            basis = [checks.fractions(row) for row in report["conservation_basis"]]
            checks.check_vertices(facts[k].vertices(basis, c0), names, op.outputs[1][1])

        return check


WORKLOADS = {"grid5-starts": GridStarts, "chain-count": ChainCount, "random-batch": RandomBatch}


# ---------------------------------------------------------------------------
# measurement


def probe() -> None:
    """A fixed piece of pure-Python work of the kinds the program does:
    integer arithmetic, dict and set updates, Fractions and a list sort.
    It shares no code with crnsiphon, so no change to the program moves it."""
    acc = 0
    table = {}
    for i in range(12000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 511] = i
    seen = set()
    for i in range(8000):
        seen.add((i * 7919) % 5003)
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    rows = [[(i * j) % 17 for j in range(20)] for i in range(60)]
    rows.sort()


class HostSpeed:
    """Scales CPU time to the reference host speed.

    The host is shared, and its speed per CPU second drifts by more than 2x
    between runs and also within seconds; wall time also
    counts the time other processes hold the CPU.  So an operation is timed
    in CPU seconds of this process and multiplied by ``PROBE_REF_S`` over
    the probe's CPU time while it ran.  Between :meth:`start` and
    :meth:`stop`, a wall-clock timer runs one probe every ``PROBE_EVERY_S``
    seconds, also in the middle of an operation; the time spent probing is
    taken out of the operation's CPU time.  An operation's probe time is the
    mean of the probes from ``PROBE_WINDOW_S`` seconds before it starts to
    as long after it ends.  (A CPU-time timer would not do: while one is
    armed, Linux reads the process CPU clock only at scheduler ticks.)"""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe CPU s)
        self.spent = 0.0  # CPU seconds spent in probes and their bookkeeping
        self._busy = False

    def _sample(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        gc_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not the probe's
        try:
            start = time.process_time()
            probe()
            cpu = time.process_time() - start
            self.samples.append((time.perf_counter(), cpu))
            self.spent += time.process_time() - start
        finally:
            if gc_enabled:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, began: float, ended: float) -> float:
        """Reference seconds per CPU second from the probes near the
        ``perf_counter`` interval [began, ended], or from every probe of the
        run if none is near; call after :meth:`stop`."""
        lo = bisect.bisect_left(self.samples, (began - PROBE_WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (ended + PROBE_WINDOW_S,))
        near = self.samples[lo:hi] or self.samples
        return PROBE_REF_S / statistics.fmean(cpu for _, cpu in near)

    def scale(self, ops: list[Op]) -> None:
        """Set each operation's ``seconds``."""
        for op in ops:
            op.seconds = op.cpu * self.factor(op.began, op.ended)


class OutputStore:
    """Keeps each operation's outputs in a file of the run's directory until
    the checks read them, so that the peak RSS of the process does not grow
    with the number of operations a run fits in."""

    def __init__(self, workdir: Path):
        self.dir = workdir / "outputs"
        self.dir.mkdir()
        self.count = 0

    def put(self, op: Op, outputs: list[tuple[int, str, str]]) -> None:
        op.stored = self.dir / f"{self.count}.json"
        self.count += 1
        op.stored.write_text(json.dumps(outputs), encoding="utf-8")

    @staticmethod
    def load(op: Op) -> None:
        op.outputs = [tuple(out) for out in json.loads(op.stored.read_text(encoding="utf-8"))]


def run_op(cli, op: Op, speed: HostSpeed, store: OutputStore) -> None:
    gc.collect()
    streams = [(io.StringIO(), io.StringIO()) for _ in op.argvs]
    codes = []
    op.began = time.perf_counter()
    start, probing = time.process_time(), speed.spent
    for argv, (out, err) in zip(op.argvs, streams):
        codes.append(cli.run(argv, out=out, err=err))
    op.cpu = time.process_time() - start - (speed.spent - probing)
    op.ended = time.perf_counter()
    store.put(op, [(rc, out.getvalue(), err.getvalue()) for rc, (out, err) in zip(codes, streams)])


def run_rounds(run_round, seconds: float) -> None:
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        run_round()
        now = time.perf_counter()
        if (now - begin) + (now - started) > seconds:
            return


class SetupTimer:
    """Times fresh interpreters that import crnsiphon and parse the
    workload's network files, in the children's CPU seconds scaled by
    :class:`HostSpeed` like an operation.  One untimed start goes first; the
    ``SETUP_STARTS`` timed ones are spread over the timed loop, between
    operations, so that their median samples the whole run rather than
    one moment of it."""

    def __init__(self, paths: list[Path]):
        self.cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, paths)]
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        self.times: list[tuple[float, float, float]] = []  # (CPU s, began, ended)
        self._start()

    def _start(self) -> tuple[float, float, float]:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        began = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        ended = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return cpu, began, ended

    def catch_up(self, fraction: float) -> None:
        """Take starts until ``fraction`` of them are done."""
        while len(self.times) < SETUP_STARTS * min(fraction, 1.0):
            self.times.append(self._start())

    def median(self, speed: HostSpeed) -> float:
        """Median of the timed starts; call after ``catch_up(1.0)``."""
        return statistics.median(cpu * speed.factor(began, ended) for cpu, began, ended in self.times)


def check_all(ops: list[Op], checker) -> tuple[bool, int]:
    """(every output checked correct, number of failed operations).  An
    operation fails when a call exits non-zero or its output fails a check;
    either also makes the run incorrect."""
    import checks

    started = time.perf_counter()
    correct = True
    failed = 0
    for op in ops:
        OutputStore.load(op)
        if any(rc != 0 for rc, _, _ in op.outputs):
            failed += 1
            correct = False
            print(f"operation exited {[rc for rc, _, _ in op.outputs]}: "
                  f"{op.outputs[-1][2].strip()[:300]}", file=sys.stderr)
            continue
        try:
            checker(op)
        except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
            # KeyError and the rest mean output the checks cannot read.
            failed += 1
            correct = False
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    print(f"crnbench: {len(ops)} operations took {sum(op.cpu for op in ops):.1f} CPU s "
          f"({sum(op.seconds for op in ops):.1f} s at the reference speed), "
          f"their checks {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return correct, failed


def load_program():
    if not (SRC / "crnsiphon" / "__init__.py").is_file():
        sys.exit(f"crnbench: no crnsiphon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crnsiphon.cli

    if not Path(crnsiphon.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"crnbench: imported crnsiphon from {crnsiphon.__file__}, not {SRC}")
    return crnsiphon.cli


def warm_up(cli, workdir: Path) -> None:
    path = workdir / "warmup.crn"
    path.write_text(WARMUP_NETWORK, encoding="utf-8")
    for argv in (["analyze", "--c0", "1,2", str(path)], ["vertices", "--c0", "1,2", str(path)],
                 ["siphons", "--count-only", "--histogram", str(path)]):
        cli.run(argv, out=io.StringIO(), err=io.StringIO())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), workdir)
        if args.trace:
            warm_up(cli, workdir)
            result = traced_run(cli, workload, args, HostSpeed(), OutputStore(workdir))
        else:
            speed = HostSpeed()
            setup = SetupTimer(workload.setup_inputs())
            warm_up(cli, workdir)
            result = untraced_run(cli, workload, args, speed, setup, OutputStore(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def result(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def untraced_run(
    cli, workload, args, speed: HostSpeed, setup: SetupTimer, store: OutputStore
) -> dict:
    """The median operation time is taken over every operation, failed or
    not, so that an operation that fails fast cannot lower it."""
    ops: list[Op] = []
    begin = time.perf_counter()

    def run_round():
        round_ops = workload.next_round()
        for op in round_ops:
            run_op(cli, op, speed, store)
            setup.catch_up((time.perf_counter() - begin) / args.seconds)
        ops.extend(round_ops)

    speed.start()
    try:
        run_rounds(run_round, args.seconds)
        setup.catch_up(1.0)
    finally:
        speed.stop()
    speed.scale(ops)
    setup_s = setup.median(speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, failed = check_all(ops, workload.checker())
    return result(correct, len(ops), failed, {
        "op_p50_s": (statistics.median(op.seconds for op in ops), "s"),
        "ops_per_s": ((len(ops) - failed) / sum(op.seconds for op in ops), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    })


def traced_run(cli, workload, args, speed: HostSpeed, store: OutputStore) -> dict:
    """Rounds in pairs: one untraced, then one traced on fresh inputs.  The
    per-layer numbers are means per traced operation; the tracing overhead
    is the traced minus the untraced mean operation time."""
    from spans import PER_LAYER, Tracer

    tracer = Tracer()
    untraced: list[Op] = []
    traced: list[Op] = []

    def run_pair():
        round_ops = workload.next_round()
        for op in round_ops:
            run_op(cli, op, speed, store)
        untraced.extend(round_ops)
        round_ops = workload.next_round()
        tracer.install()
        try:
            for op in round_ops:
                tracer.op = len(traced)
                run_op(cli, op, speed, store)
                traced.append(op)
        finally:
            tracer.uninstall()

    speed.start()
    try:
        run_rounds(run_pair, args.seconds)
    finally:
        speed.stop()
    ops = untraced + traced
    speed.scale(ops)
    correct, failed = check_all(ops, workload.checker())
    overhead = statistics.fmean(op.seconds for op in traced) - statistics.fmean(
        op.seconds for op in untraced
    )
    values = tracer.per_op(len(traced), overhead)
    RUN_DIR.mkdir(exist_ok=True)
    tracer.dump(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    return result(correct, len(ops), failed, {k: (values[k], PER_LAYER[k][0]) for k in PER_LAYER})


if __name__ == "__main__":
    sys.exit(main())
