"""The benchmark workloads: seeded input streams, the timed operation and
the result each operation keeps for the checks in ``checks.py``.

BENCHMARK.json lists cli-oneshot and invariant-sweep.  rrk-crosscheck
and spectrum-build run the same way by hand (``--workload NAME``); they
are left out of BENCHMARK.json so that the listed workloads can run long
enough to average out this machine's drift within the time the full set
of runs may take.  The rrketa and spectrum layers are still exercised
there, through cli-oneshot's ``rrk-eta`` and ``spectrum`` calls.

Every workload is a closed loop with one client in one process; the only
child process is the ``python -m crseifert`` call of cli-oneshot.  A
workload's inputs are an endless stream drawn from ``--seed``; set-up
materialises the first ``prefetch`` of them and the timed loop then reads
on, so a faster program never sees an input twice.

Sizes (alpha, lens order p) come from a golden-ratio Weyl sequence on a
log scale with a seeded offset: every prefix of the stream covers the
size range evenly, so runs of different length and different seeds load
the program alike, while everything else about an input is drawn at
random.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from crseifert import (invariants, obstruct, rrketa, seifert, spectrum,
                       verify)

import pkg

GOLDEN = (math.sqrt(5) - 1) / 2

# Each change planned for the hot path, with the workload and metric it
# should move and the ones it should leave flat; a later claim cites these.
PREDICTIONS = (
    {"change": "cone_sum uses reduce_to_classical + dedekind_fast",
     "moves": ["invariant-sweep ops_per_s", "invariant-sweep latency_tail_ms",
               "dedekind.sawtooth.terms -> 0 outside lens_report"],
     "flat": ["rrk-crosscheck", "spectrum-build"]},
    {"change": "remove numpy",
     "moves": ["cli-oneshot latency_p50_ms", "import.numpy_ms -> 0",
               "setup_s on every workload"],
     "flat": ["spectrum-build ops_per_s", "rrk-crosscheck ops_per_s"],
     "risk": "invariant-sweep ops_per_s on its alpha >= 512 share "
             "(share.alpha_ge_512) until cone_sum no longer sums sawtooths"},
    {"change": "integer _periodic_value",
     "moves": ["rrk-crosscheck ops_per_s", "rrk-crosscheck latency_tail_ms",
               "exactq.hurwitz_zeta_at_zero.calls below rrketa.periodic_terms"],
     "flat": ["invariant-sweep", "spectrum-build"]},
    {"change": "lens_report computes each Dedekind sum once",
     "moves": ["obstruct.sawtooth_per_report from 6",
               "obstruct.lens_report.dedekind_distinct_ratio from 0.5 to 1",
               "invariant-sweep latency_p50_ms"],
     "flat": ["rrk-crosscheck"]},
    {"change": "none (waste the trace exposes, left unfixed)",
     "moves": [],
     "flat": [],
     "note": "rrk-eta evaluates the regularized series twice, with or "
             "without --breakdown: rrketa.series_per_rrk_command = 2"},
)


def log_sizes(rng: random.Random, lo: int, hi: int):
    """Endless integers spread log-uniformly over [lo, hi]."""
    u, a, b = rng.random(), math.log(lo), math.log(hi)
    while True:
        u = (u + GOLDEN) % 1.0
        yield round(math.exp(a + u * (b - a)))


def unit(rng: random.Random, alpha: int) -> int:
    """A uniform unit modulo alpha in [1, alpha)."""
    while True:
        u = rng.randrange(1, alpha)
        if math.gcd(u, alpha) == 1:
            return u


def admissible_q(rng: random.Random, p: int) -> int:
    """A q with gcd(q, p) = gcd(q - 1, p) = 1; p must be odd (q = 2 works)."""
    while True:
        q = rng.randrange(2, p)
        if math.gcd(q, p) == 1 and math.gcd(q - 1, p) == 1:
            return q


def odd(n: int) -> int:
    return max(3, n | 1)


def cone_data(rng: random.Random, sizes, ncones: int) -> tuple:
    """("genus", g, degree, cones): valid from_genus arguments."""
    cones = []
    for _ in range(ncones):
        alpha = max(2, next(sizes))
        cones.append((alpha, unit(rng, alpha), unit(rng, alpha)))
    degree = -Fraction(rng.randint(1, 9), rng.randint(1, 6))
    return ("genus", rng.randint(0, 3), degree, tuple(cones))


def build(spec) -> seifert.SeifertData:
    """The package's own constructor for a manifold spec."""
    if spec[0] == "lens":
        return seifert.lens_space(spec[1], spec[2])
    if spec[0] == "sphere":
        return seifert.sphere()
    return seifert.from_genus(spec[1], spec[2], spec[3])


def spec_alpha_max(spec) -> int:
    if spec[0] == "lens":
        return spec[1]
    if spec[0] == "genus":
        return max((c[0] for c in spec[3]), default=1)
    return 1


def fingerprint(values) -> bytes:
    """A short digest of plain values (Fractions, ints, strings, tuples)."""
    return hashlib.blake2b(repr(values).encode(), digest_size=16).digest()


def spawn(cmd):
    """Run one child interpreter to completion.

    Returns (exit code, stdout, stderr, seconds, peak RSS in KB); the RSS
    is the child's own, from wait4.  stderr goes through a file so a
    chatty child cannot block on a full pipe.
    """
    pkg.OUT.mkdir(parents=True, exist_ok=True)
    err_path = pkg.OUT / f"stderr-{os.getpid()}.txt"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=pkg.ROOT,
                                env=pkg.child_env())
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_text = err.read().decode("utf-8", "replace")
    err_path.unlink()
    return (proc.returncode, out.decode("utf-8", "replace"), err_text,
            elapsed, usage.ru_maxrss)


class Workload:
    """One workload.  Subclasses define the input stream, the operation
    and, in ``checks.py``, the independent check of what it keeps."""

    name = ""
    why = ""
    in_process = True    # False: each operation is a child process
    trace_ops = 0        # operations in a traced run (fixed, so counts repeat)
    prefetch = 0         # inputs generated during set-up

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def stream(self):
        raise NotImplementedError

    def run(self, inp, tracer=None):
        raise NotImplementedError

    def keep(self, inp, result):
        """What the checks need of one result.  Inputs are not kept: the
        checks draw them again from the seed, so the measured peak RSS
        does not grow with the number of operations."""
        return result

    def alpha_max(self, inp) -> int:
        return 0


class InvariantSweep(Workload):
    name = "invariant-sweep"
    why = ("production invariant bundle on lens and genus data, alpha "
           "log-uniform 2..1e5: the sawtooth sum dominates, on both sides "
           "of numpy's alpha >= 512 branch")
    trace_ops = 400
    prefetch = 1000

    def stream(self):
        rng, sizes = self.rng, log_sizes(self.rng, 2, 10**5)
        while True:
            if rng.random() < 0.5:
                p = odd(next(sizes))
                yield ("lens", p, admissible_q(rng, p))
            else:
                yield cone_data(rng, sizes, rng.randint(1, 6))

    def run(self, inp, tracer=None):
        data = build(inp)
        report = obstruct.lens_report(inp[1], inp[2]) if inp[0] == "lens" else None
        return (invariants.eta0(data), invariants.nu(data),
                invariants.eta_dstar(data), invariants.diabatic_expansion(data),
                invariants.check_cor15(data), report)

    @staticmethod
    def values(result) -> tuple:
        """The result as plain values, in the order the checks rebuild it."""
        eta0, nu, eta_dstar, diabatic, cor15, report = result
        return (eta0, nu, sorted(eta_dstar.coefficients().items()),
                [sorted(diabatic.coefficient(i).coefficients().items())
                 for i in range(-2, 3)],
                cor15,
                None if report is None else [(r.lhs, r.rhs, r.status)
                                             for r in report])

    def keep(self, inp, result):
        """A digest: thousands of kept results would otherwise grow the
        measured peak RSS with the operation count."""
        return fingerprint(self.values(result))

    def alpha_max(self, inp) -> int:
        return spec_alpha_max(inp)


class RrkCrosscheck(Workload):
    name = "rrk-crosscheck"
    why = ("eta0_via_rrk on 1-4 cones, alpha log-uniform 2..1e4, every 50th "
           "input L(10007, q): per-term Fraction arithmetic, no Dedekind sum")
    trace_ops = 60
    prefetch = 100

    def stream(self):
        rng, sizes = self.rng, log_sizes(self.rng, 2, 10**4)
        for i in count():
            if i % 50 == 25:
                yield ("lens", 10007, admissible_q(rng, 10007))
            else:
                yield cone_data(rng, sizes, rng.randint(1, 4))

    def run(self, inp, tracer=None):
        return rrketa.eta0_via_rrk(build(inp))

    def alpha_max(self, inp) -> int:
        return spec_alpha_max(inp)


@dataclass(frozen=True)
class ModeSet:
    modes: tuple
    holo: spectrum.HoloCounts
    eps: tuple


def mode_set(rng: random.Random, n_modes: int, nmax: int) -> ModeSet:
    """Half exact, half float k; three rational eps.  CR-function modes
    (k = n at index n) carry at least 2*h0(n), so every holomorphic
    removal is feasible."""
    eps = set()
    while len(eps) < 3:
        eps.add(Fraction(rng.randint(1, 3), rng.randint(4, 16)))
    eps = tuple(sorted(eps))
    h0 = {n: rng.randint(1, 3) for n in range(1, nmax + 1)}
    h2 = {n: rng.randint(0, 3) for n in range(2, nmax + 1)}
    modes = [spectrum.SpectralMode(Fraction(n), n, 2 * m + rng.randint(0, 2))
             for n, m in h0.items()]
    while len(modes) < n_modes // 2:
        n = rng.randint(-nmax, nmax)
        if rng.random() < 0.5:
            # radicand 1 + 4e(k + e n^2) = (1 + 2 e m)^2 at one eps e
            e, m = rng.choice(eps), abs(n) + rng.randint(0, 40)
            k = m + e * (m * m - n * n)
        else:
            k = Fraction(rng.randint(0, 400), rng.randint(1, 12))
        modes.append(spectrum.SpectralMode(k, n, rng.randint(1, 4)))
    while len(modes) < n_modes:
        modes.append(spectrum.SpectralMode(
            rng.uniform(0.5, 100.0), rng.randint(-nmax, nmax), rng.randint(1, 4)))
    rng.shuffle(modes)
    return ModeSet(tuple(modes), spectrum.HoloCounts(h0=h0, h2=h2), eps)


class SpectrumBuild(Workload):
    name = "spectrum-build"
    why = ("virtual spectra at 3 eps, the D* limit and their CSV for ~2000 "
           "modes, half exact, half float: the only spectrum workload")
    trace_ops = 12
    prefetch = 4
    N_MODES = 2000
    N_MAX = 60

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._seen = set()

    def stream(self):
        sets = [mode_set(self.rng, self.N_MODES, self.N_MAX)
                for _ in range(self.prefetch)]
        for i in count():
            yield i % len(sets), sets[i % len(sets)]

    def run(self, inp, tracer=None):
        ms = inp[1]
        spectra = [spectrum.virtual_spectrum(ms.modes, ms.holo, e) for e in ms.eps]
        spectra.append(spectrum.dstar_limit_spectrum(ms.modes, ms.holo))
        return spectra, [spectrum.lines_csv(lines) for lines in spectra]

    def keep(self, inp, result):
        """Full result for the first use of a mode set, a digest after."""
        digest = hashlib.sha256("\n".join(result[1]).encode()).hexdigest()
        if inp[0] in self._seen:
            return None, digest
        self._seen.add(inp[0])
        return result, digest


@dataclass(frozen=True)
class CliCase:
    argv: tuple
    command: str
    manifold: tuple = None   # manifold spec, for the manifold commands
    flags: tuple = ()
    value: object = None     # command-specific argument (t2, lambda2, pmax, ...)


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    rss_kb: int


class CliOneshot(Workload):
    name = "cli-oneshot"
    in_process = False
    why = ("one fresh python -m crseifert process per call on small "
           "inputs: interpreter start and import dominate")
    trace_ops = 40
    prefetch = 100
    N_FILES = 8
    N_MODE_SETS = 2
    MANIFOLD_COMMANDS = ("nu", "eta0", "eta-dstar", "ouyang", "diabatic",
                         "rrk-eta", "obstruction")

    def stream(self):
        rng = self.rng
        files = []
        for i in range(self.N_FILES):
            spec = cone_data(rng, iter(lambda: rng.randint(2, 50), None),
                             rng.randint(0, 4))
            path = self.workdir / f"manifold-{i}.json"
            path.write_text(json.dumps({
                "genus": spec[1], "degree": str(spec[2]),
                "cone_points": [{"alpha": a, "rho": r, "beta": b}
                                for a, r, b in spec[3]]}))
            files.append((spec, str(path)))
        mode_files = []
        for i in range(self.N_MODE_SETS):
            ms = mode_set(rng, 200, 20)
            modes = self.workdir / f"modes-{i}.json"
            modes.write_text(json.dumps([
                {"k": m.k if isinstance(m.k, float) else str(m.k),
                 "n": m.n, "mult": m.mult} for m in ms.modes]))
            holo = self.workdir / f"holo-{i}.json"
            holo.write_text(json.dumps({"h0": ms.holo.h0, "h2": ms.holo.h2}))
            mode_files.append((ms, str(modes), str(holo)))
        for i in count():
            yield self.case(i, rng, files, mode_files)

    def case(self, i, rng, files, mode_files) -> CliCase:
        """Every 25 calls hold one spectrum, one verify and one sweep; the
        rest are drawn: 3/4 manifold commands, then dedekind, berger and
        lens."""
        if i % 25 == 6:
            ms, modes, holo = rng.choice(mode_files)
            eps = rng.choice(ms.eps + (None,))
            where = ("--limit",) if eps is None else ("--eps", str(eps))
            return CliCase(("spectrum", "--modes", modes, "--holo", holo) + where,
                           "spectrum", value=(ms, eps))
        if i % 25 == 12:
            scope = rng.choice(["all"] + verify.scopes())
            return CliCase(("verify", scope), "verify", value=scope)
        if i % 25 == 24:
            pmax = rng.randint(10, 40)
            return CliCase(("sweep", "lens", "--pmax", str(pmax)), "sweep",
                           value=pmax)
        r = rng.random()
        if r < 0.75:
            return self.manifold_case(rng, files)
        if r < 0.83:
            alpha = rng.randint(2, 200)
            triple = (alpha, unit(rng, alpha), unit(rng, alpha))
            flags = ("--json",) if rng.random() < 0.5 else ()
            return CliCase(("dedekind", *map(str, triple)) + flags,
                           "dedekind", flags=flags, value=triple)
        if r < 0.91:
            lam = Fraction(rng.randint(1, 30), rng.randint(1, 12))
            flags = tuple(f for f in ("--all-identities", "--json")
                          if rng.random() < 0.5)
            return CliCase(("berger", "--lambda2", str(lam)) + flags,
                           "berger", flags=flags, value=lam)
        p = odd(rng.randint(3, 49))
        q = admissible_q(rng, p)
        fmt = rng.choice(("csv", "md", "json"))
        return CliCase(("lens", str(p), str(q), "--format", fmt), "lens",
                       manifold=("lens", p, q), value=fmt)

    def manifold_case(self, rng, files) -> CliCase:
        command = rng.choice(self.MANIFOLD_COMMANDS)
        r = rng.random()
        if r < 0.4:
            p = odd(rng.randint(3, 49))
            q = admissible_q(rng, p)
            spec, where = ("lens", p, q), ("--lens", str(p), str(q))
        elif r < 0.5:
            spec, where = ("sphere",), ("--sphere",)
        else:
            spec, path = rng.choice(files)
            where = ("--input", path)
        flags, value = (), None
        if command == "rrk-eta":
            flags = rng.choice(((), ("--json",), ("--breakdown",)))
        elif rng.random() < 0.5:
            flags = ("--json",)
        if command == "ouyang" and rng.random() < 0.5:
            value = Fraction(rng.randint(1, 20), rng.randint(1, 6))
            flags += ("--t2", str(value))
        return CliCase((command,) + where + flags, command, manifold=spec,
                       flags=flags, value=value)

    def run(self, case, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "crseifert", *case.argv]
        else:
            spans = self.workdir / "spans.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(pkg.ROOT / "perfbench" / "cli_runner.py"), str(spans),
                   *case.argv]
        code, out, err, _, rss = spawn(cmd)
        if tracer is not None:
            tracer.absorb_child(json.loads(spans.read_text()), err)
        return CliResult(code, out, err[-2000:], rss)

    def alpha_max(self, case) -> int:
        if case.manifold is not None:
            return spec_alpha_max(case.manifold)
        if case.command == "dedekind":
            return case.value[0]
        if case.command == "sweep":
            return case.value
        return 0


WORKLOADS = {w.name: w for w in (CliOneshot, InvariantSweep, RrkCrosscheck,
                                 SpectrumBuild)}
