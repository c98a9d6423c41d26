"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``build``), runs one input
through a pipeline of library calls (``pipeline``, the timed part) and checks
the outputs: ``check`` on every repetition, ``examine`` once per distinct
input, ``cli_check`` once per run against ``efl.cli.main``.  Pipelines call
the library only through ``call(name, fn, *args)``.  The traced run passes a
span recorder there and the untraced run a plain forwarding function, so both
runs make the same calls.  ``name`` is ``<module>.<operation>``, where the
module is the one under ``src/efl`` that the call enters.

The library module is passed in as ``efl`` rather than imported here, because
the runner re-imports it for every set-up repetition it times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import operator
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ``parse_instance(require_validity=True)`` reads the cached
# ``Instance.validation``.  Reading it as a separate call times parsing and
# validation as two spans, and later ``require_valid`` calls stay cache hits.
_validation = operator.attrgetter("validation")


def _parse(efl, call, text: str):
    inst = call("instance.parse", efl.parse_instance, text, require_validity=False)
    report = call("instance.validate", _validation, inst)
    if not report.ok:
        raise efl.ParseError("; ".join(v.message for v in report.violations))
    return inst


def _relabel(efl, inst, rng: random.Random):
    """An isomorphic copy: fresh vertex tokens, cliques and members shuffled."""
    names = [f"x{k}" for k in range(len(inst.vertices))]
    rng.shuffle(names)
    rename = dict(zip(inst.vertices, names))
    cliques = [[rename[t] for t in members] for members in inst.cliques]
    for members in cliques:
        rng.shuffle(members)
    rng.shuffle(cliques)
    return efl.Instance(inst.n, cliques)


def _engine_counts(result, n: int) -> tuple[Counter, dict]:
    """Event counts of one trace-enabled engine run, and its budget share."""
    kinds = Counter(type(ev).__name__ for ev in result.trace)
    counts = Counter(
        {
            "matrix_engine.calls": 1,
            "matrix_engine.ok": int(result.ok),
            "matrix_engine.assign_events": kinds["Assigned"],
            "matrix_engine.repair_events": kinds["RepairRecolored"],
            "matrix_engine.skip_events": kinds["RepairSkipped"],
            "matrix_engine.budget_events": kinds["BudgetExhausted"],
        }
    )
    # every recolor is charged to the default budget of n^2
    return counts, {"matrix_engine.budget_used_max_share": kinds["RepairRecolored"] / (n * n)}


def _verify_problems(report, n: int, what: str) -> list[str]:
    if not report.proper:
        return [f"{what}: coloring is not proper ({len(report.conflicts)} conflicts)"]
    if report.max_color > n:
        return [f"{what}: uses color {report.max_color} > n = {n}"]
    return []


def _cli(argv: list[str]) -> tuple[int, str]:
    cli = importlib.import_module("efl.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (efl, seed) -> list of items
    pipeline: Callable  # (efl, item, call) -> outputs
    check: Callable  # (efl, item, outputs) -> problems
    digest: Callable  # (efl, item, outputs) -> bytes
    examine: Callable  # (efl, item, outputs, count) -> (problems, sums, maxima)
    cli_check: Callable  # (efl, items, outputs, tmpdir) -> problems
    label: Callable  # item -> short description


# ---------------------------------------------------------------- dense-color

# Engine work does not grow smoothly with n (the repair count jumps between
# neighbouring sizes), so every size in the range runs.  n = 50 is the size
# of the ROADMAP baseline.
DENSE_COLOR_SIZES = tuple(range(10, 51))


@dataclass(frozen=True)
class DenseItem:
    n: int
    text: str


def dense_build(efl, seed: int) -> list[DenseItem]:
    # Every permutation of the cliques of a dense cover is an automorphism,
    # so the relabelled copies give the engine the same work for every seed;
    # only the tokens and the output order differ.
    rng = random.Random(seed)
    items = [
        DenseItem(n, efl.serialize_instance(_relabel(efl, efl.gen_dense(n), rng)))
        for n in DENSE_COLOR_SIZES
    ]
    rng.shuffle(items)
    return items


def dense_pipeline(efl, item: DenseItem, call) -> dict:
    """``efl color --method matrix --out structured --dot``, in memory."""
    inst = _parse(efl, call, item.text)
    result = call("matrix_engine.run", efl.run_matrix_method, inst)
    out = {"ok": result.ok, "inst": inst, "result": result, "listing": "", "dot": ""}
    if result.ok:
        out["verify"] = call("oracle.verify", efl.verify_proper, inst, result.coloring)
        out["listing"] = call("export.coloring", efl.export_coloring, result.coloring, inst.n)
        out["dot"] = call("export.dot", efl.export_dot, inst, result.coloring)
    return out


def dense_check(efl, item: DenseItem, out: dict) -> list[str]:
    return _verify_problems(out["verify"], item.n, "matrix") if out["ok"] else []


def dense_digest(efl, item: DenseItem, out: dict) -> bytes:
    return "\0".join((item.text, out["listing"], out["dot"])).encode()


def dense_examine(efl, item: DenseItem, out: dict, count: bool):
    sums = Counter({"export.bytes": len(out["listing"]) + len(out["dot"])})
    maxima: dict = {}
    if count:
        traced = efl.run_matrix_method(out["inst"], efl.EngineConfig(trace_enabled=True))
        engine, maxima = _engine_counts(traced, item.n)
        sums += engine
    return [], sums, maxima


def dense_cli_check(efl, items, outs, tmpdir: Path) -> list[str]:
    idx = min(range(len(items)), key=lambda i: items[i].n)
    item, out = items[idx], outs[idx]
    src, dot = tmpdir / "dense.efl", tmpdir / "dense.dot"
    src.write_text(item.text, encoding="utf-8")
    code, stdout = _cli(
        ["color", str(src), "--method", "matrix", "--out", "structured", "--dot", str(dot)]
    )
    problems = []
    if code != 0 or stdout != out["listing"]:
        problems.append(f"efl color stdout differs from the pipeline on dense({item.n})")
    if not dot.exists() or dot.read_text(encoding="utf-8") != out["dot"]:
        problems.append(f"efl color --dot differs from the pipeline on dense({item.n})")
    return problems


DENSE_COLOR = Workload(
    name="dense-color",
    build=dense_build,
    pipeline=dense_pipeline,
    check=dense_check,
    digest=dense_digest,
    examine=dense_examine,
    cli_check=dense_cli_check,
    label=lambda item: f"dense({item.n})",
)


# -------------------------------------------------------------- random-corpus

# Merge counts are shares of C(n,2).  Extension percentages of 20..80 push
# shared vertices into third and later cliques, so clique degrees of 3 and
# up appear.  Generator time for one parameter set varies with its seed, so
# every set runs with RANDOM_REPLICATES seeds.
RANDOM_SIZES = (8, 11, 14, 17, 20)
RANDOM_MERGE_SHARES = (0.3, 0.6, 1.0)
RANDOM_EXTENSIONS = (20, 50, 80)
RANDOM_REPLICATES = 2


def random_build(efl, seed: int) -> list:
    rng = random.Random(seed)
    items = [
        efl.GenSpec(
            kind="random",
            n=n,
            seed=rng.getrandbits(63),
            merges=int(share * (n * (n - 1) // 2)),
            extension_percent=ext,
        )
        for n in RANDOM_SIZES
        for share in RANDOM_MERGE_SHARES
        for ext in RANDOM_EXTENSIONS
        for _ in range(RANDOM_REPLICATES)
    ]
    rng.shuffle(items)
    return items


def random_pipeline(efl, spec, call) -> dict:
    """Generate and round-trip the text, the stats checks, greedy, engine, replay, verify."""
    built = call("generators.build_random", efl.build_random, spec)
    text = call("export.serialize", efl.serialize_instance, built.instance)
    inst = _parse(efl, call, text)
    out = {"ok": False, "built": built, "text": text, "inst": inst}
    out["identity"] = call("oracle.checks", efl.theorem_identity, inst)
    out["bound"] = call("oracle.checks", efl.corollary_bound_check, inst)
    out["sy1"] = call("greedy.conditions", efl.check_sy1, inst)
    out["sy2"] = call("greedy.conditions", efl.check_sy2_all, inst)
    out["greedy"] = call("greedy.run", efl.run_greedy, inst)
    config = efl.EngineConfig(trace_enabled=True)
    result = out["result"] = call("matrix_engine.run", efl.run_matrix_method, inst, config)
    start = call("matrix_engine.replay", efl.initial_matrix, inst)
    replayed = call("matrix_engine.replay", efl.replay_trace, inst, result.trace, start)
    out["replay_ok"] = replayed == result.final_matrix
    if result.ok:
        out["ok"] = True
        out["verify"] = call("oracle.verify", efl.verify_proper, inst, result.coloring)
    return out


def random_check(efl, spec, out: dict) -> list[str]:
    problems = []
    identity = out["identity"]
    if identity.lhs != identity.rhs:
        problems.append(f"identity: {identity.lhs} != {identity.rhs}")
    if not out["bound"].ok:
        problems.append("degree-count bound fails")
    if not out["replay_ok"]:
        problems.append("replay_trace does not reproduce final_matrix")
    greedy = out["greedy"]
    if not greedy.ok and greedy.reason != "no-color-available":
        problems.append(f"greedy failed: {greedy.reason}")
    if out["ok"]:
        problems += _verify_problems(out["verify"], spec.n, "matrix")
    return problems


def random_digest(efl, spec, out: dict) -> bytes:
    parts = [out["text"]]
    for result in (out["result"], out["greedy"]):
        parts.append(efl.export_coloring(result.coloring, spec.n) if result.ok else result.reason)
    return "\0".join(parts).encode()


def random_examine(efl, spec, out: dict, count: bool):
    problems = []
    greedy = out["greedy"]
    if greedy.ok:
        report = efl.verify_proper(out["inst"], greedy.coloring)
        problems += _verify_problems(report, spec.n, "greedy")
    sums = Counter(
        {
            "generators.merges_done": out["built"].merges_done,
            "generators.extensions_done": out["built"].extensions_done,
            "greedy.calls": 1,
            "greedy.ok": int(greedy.ok),
            "greedy.sy1_holds": int(out["sy1"].holds),
            "greedy.sy2_holds": int(out["sy2"].holds),
            "export.bytes": len(out["text"]),
        }
    )
    engine, maxima = _engine_counts(out["result"], spec.n)
    return problems, sums + engine, maxima


def random_cli_check(efl, specs, outs, tmpdir: Path) -> list[str]:
    # ``efl gen`` has no extension flag, so compare on its default of 20 %.
    idx = min(
        (i for i, s in enumerate(specs) if s.extension_percent == 20),
        key=lambda i: (specs[i].n, specs[i].merges),
    )
    spec, out = specs[idx], outs[idx]
    label = f"n={spec.n} merges={spec.merges}"
    path = tmpdir / "random.efl"
    code, _ = _cli(
        ["gen", "--kind", "random", "--n", str(spec.n), "--seed", str(spec.seed),
         "--merges", str(spec.merges), "-o", str(path)]
    )
    if code != 0 or path.read_text(encoding="utf-8") != out["text"]:
        return [f"efl gen differs from the pipeline on {label}"]
    code, stdout = _cli(["color", str(path), "--method", "matrix", "--out", "structured"])
    result = out["result"]
    if code != 0 or not result.ok or stdout != efl.export_coloring(result.coloring, spec.n):
        return [f"efl color differs from the pipeline on {label}"]
    return []


RANDOM_CORPUS = Workload(
    name="random-corpus",
    build=random_build,
    pipeline=random_pipeline,
    check=random_check,
    digest=random_digest,
    examine=random_examine,
    cli_check=random_cli_check,
    label=lambda s: f"random(n={s.n}, merges={s.merges}, ext={s.extension_percent})",
)


# --------------------------------------------------------------- oracle-exact

# Small dense covers, whose cores are line graphs of complete graphs; dense(7)
# needs the proof that 6 colors do not suffice.  The random covers are chosen
# by generator parameters only, and none is dropped for being slow.  Every
# merge adds one core vertex, so the merge count sets the core size: 12..20
# vertices, under the default exact search limit of 40.  Single cores of
# 25..28 vertices took 0.1..6 s; one of them would set a run's throughput by
# itself, whatever the rest of the seed's instances did.
ORACLE_DENSE_SIZES = tuple(range(3, 9))
ORACLE_RANDOM_SIZES = (7, 8, 9, 10)
ORACLE_MERGES = tuple(range(12, 21))
ORACLE_EXTENSIONS = (20, 60)
ORACLE_PER_STRATUM = 24


@dataclass(frozen=True)
class OracleItem:
    n: int
    text: str
    dense: bool


def oracle_build(efl, seed: int) -> list[OracleItem]:
    rng = random.Random(seed)
    items = [
        OracleItem(n, efl.serialize_instance(_relabel(efl, efl.gen_dense(n), rng)), True)
        for n in ORACLE_DENSE_SIZES
    ]
    for n in ORACLE_RANDOM_SIZES:
        for merges in (m for m in ORACLE_MERGES if m <= n * (n - 1) // 2):
            for ext in ORACLE_EXTENSIONS:
                for _ in range(ORACLE_PER_STRATUM):
                    inst = efl.gen_random(n, merges, rng.getrandbits(63), ext)
                    items.append(OracleItem(n, efl.serialize_instance(inst), False))
    rng.shuffle(items)
    return items


def oracle_pipeline(efl, item: OracleItem, call) -> dict:
    """``efl chromatic`` with its default vertex limit, in memory."""
    inst = _parse(efl, call, item.text)
    core = call("instance.core_subgraph", efl.core_subgraph, inst)
    chi = call("oracle.chromatic", efl.chromatic_number_exact, core)
    return {"ok": True, "inst": inst, "core": core, "chi": chi}


def oracle_check(efl, item: OracleItem, out: dict) -> list[str]:
    # chi(L(K_n)) is n-1 for even n and n for odd n
    if item.dense and out["chi"] != item.n - (item.n % 2 == 0):
        return [f"dense({item.n}) core has chi {out['chi']}, closed form disagrees"]
    return []


def oracle_digest(efl, item: OracleItem, out: dict) -> bytes:
    return f"{item.text}\0{len(out['core'].vertices)}\0{out['chi']}".encode()


def oracle_examine(efl, item: OracleItem, out: dict, count: bool):
    result = efl.run_matrix_method(out["inst"], efl.EngineConfig(trace_enabled=True))
    problems = []
    if result.ok and out["chi"] > item.n:
        problems.append(f"engine colored with {item.n} colors but chi = {out['chi']}")
    sums, maxima = _engine_counts(result, item.n)
    sums += Counter(
        {
            "instance.core_vertices": len(out["core"].vertices),
            "instance.core_edges": len(out["core"].edges),
            "oracle.chi_sum": out["chi"],
            "oracle.calls": 1,
            "oracle.n_colorable": int(out["chi"] <= item.n),
        }
    )
    return problems, sums, maxima


def oracle_cli_check(efl, items, outs, tmpdir: Path) -> list[str]:
    idx = next(i for i, item in enumerate(items) if item.dense and item.n == 7)
    item, out = items[idx], outs[idx]
    path = tmpdir / "oracle.efl"
    path.write_text(item.text, encoding="utf-8")
    code, stdout = _cli(["chromatic", str(path)])
    chi = out["chi"]
    verdict = (
        f"n-colorable (n = {item.n})"
        if chi <= item.n
        else f"not n-colorable (core needs {chi} > n = {item.n})"
    )
    want = f"core vertices: {len(out['core'].vertices)}\ncore chromatic number: {chi}\nverdict: {verdict}\n"
    if code != (0 if chi <= item.n else 1) or stdout != want:
        return [f"efl chromatic differs from the pipeline on dense({item.n})"]
    return []


ORACLE_EXACT = Workload(
    name="oracle-exact",
    build=oracle_build,
    pipeline=oracle_pipeline,
    check=oracle_check,
    digest=oracle_digest,
    examine=oracle_examine,
    cli_check=oracle_cli_check,
    label=lambda item: f"{'dense' if item.dense else 'random'}(n={item.n})",
)

WORKLOADS = {w.name: w for w in (DENSE_COLOR, RANDOM_CORPUS, ORACLE_EXACT)}
