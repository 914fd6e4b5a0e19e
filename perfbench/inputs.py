"""Seeded benchmark inputs, their provenance, and the independent oracle.

Every input is a function of ``--seed`` alone: the same seed yields
byte-identical images (checked by :func:`determinism_check`), a
different seed yields different ones.  Generating the images and
solving them with the whole-CFG baseline is benchmark preparation, not
measured work, so both are cached on disk under ``.perfbench_cache/``,
keyed by workload, pool entry and a digest of the program sources (a change
to the generator or the baseline invalidates the cache).

The oracle is :func:`repro.interproc.baseline.analyze_program_baseline`,
an engine that shares no code with the PSG pipeline beyond decode, CFG
construction and the local sets.  For each input it records the
``summaries_crc64`` the analysis must report and, where a workload
queries single routines, the rendered summary of each such routine.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

CACHE_DIR = ".perfbench_cache"

#: Seeds draw their inputs from a fixed pool of entries per workload,
#: so the costly preparation (generation, baseline solves)
#: is paid once per entry and cached, not once per seed.
POOL_SIZE = {"store-family": 4, "serve-edit": 1}
#: store-family: linked variants per family (the first warms the store).
FAMILY_VARIANTS = 4
FAMILY_SCALE = 0.1
#: serve-edit: (shape, scale) of each client's image.
SERVE_IMAGES = (("gcc", 0.25), ("perl", 1.0))
#: serve-edit: seeded edit and query pools per image.  A run walks
#: the whole query pool at least once, so its costliest queries (the
#: widest cones) land in every run's tail.
EDIT_POOL = 2
QUERY_POOL = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def inputs_digest(root: Path) -> str:
    """Digest of what cached inputs depend on: every ``.py`` file under
    ``src`` (generator, baseline) and this file (the recipes)."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(root: Path) -> Dict[str, object]:
    """Where the numbers came from: git sha (when the checkout carries
    a ``.git`` directory), CPU count, Python and platform."""
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _generator_seed(seed: int, index: int) -> int:
    # Distinct, reproducible generator seeds per (run seed, image).
    return (seed * 7919 + index * 104729) & 0xFFFFFF


# ----------------------------------------------------------------------
# Recipes: seed -> image bytes (+ what the oracle must check)
# ----------------------------------------------------------------------


def _generate(shape_name: str, scale: float, gen_seed: int) -> bytes:
    from repro.workloads.generator import GeneratorConfig, generate_image
    from repro.workloads.shapes import shape_by_name

    shape = shape_by_name(shape_name)
    if scale != 1.0:
        shape = shape.scaled(scale)
    return generate_image(shape, GeneratorConfig(seed=gen_seed)).to_bytes()


def _decode(blob: bytes):
    from repro.program.disasm import load_program

    return load_program(blob)


def _baseline(program):
    from repro.interproc.baseline import analyze_program_baseline

    return analyze_program_baseline(program).result


def _digest(result) -> str:
    from repro.interproc.results import summaries_digest

    return summaries_digest(result)


def summary_hash(rendered: Dict[str, object]) -> str:
    """Canonical hash of one rendered (``to_json``) routine summary."""
    return sha256(json.dumps(rendered, sort_keys=True).encode())[:16]


def build_store_family(index: int, out: Path) -> List[dict]:
    """Pool entry ``index``: a gcc-shaped family, one shared library
    linked against ``FAMILY_VARIANTS`` per-variant app modules."""
    library, names = _library(index, FAMILY_SCALE)
    images = []
    for version in range(1, FAMILY_VARIANTS + 1):
        blob = _link(index, version, library, names)
        images.append(_save(out, f"family{index}-app{version}", blob,
                            _digest(_baseline(_decode(blob)))))
    return images


def build_serve_edit(index: int, out: Path) -> List[dict]:
    """Pool entry ``index``: one image per client, each with a seeded
    edit pool (the baseline of every edited program) and query pool
    (the baseline summary of every queried routine)."""
    from repro.workloads.mutate import editable_routines, perturb_routine

    clients = []
    for position, (shape, scale) in enumerate(SERVE_IMAGES):
        blob = _generate(shape, scale, _generator_seed(index, position))
        program = _decode(blob)
        rng = random.Random(index * 31 + position)
        base = _baseline(program)
        entry = _save(out, f"{shape}-{index}", blob, _digest(base))
        entry["queries"] = {
            name: summary_hash(base.summaries[name].to_json())
            for name in rng.sample(sorted(base.summaries), QUERY_POOL)
        }
        entry["edits"] = {
            name: _digest(_baseline(perturb_routine(program, name)))
            for name in rng.sample(editable_routines(program), EDIT_POOL)
        }
        clients.append(entry)
    return clients


BUILDERS = {
    "store-family": build_store_family,
    "serve-edit": build_serve_edit,
}


def select(workload: str, seed: int) -> Tuple[List[int], random.Random]:
    """The pool entries a seed's run uses, and the seed's generator
    for any further per-run choices."""
    rng = random.Random(seed)
    return [rng.randrange(POOL_SIZE[workload])], rng


def _save(out: Path, name: str, blob: bytes, digest: str) -> Dict[str, object]:
    (out / f"{name}.img").write_bytes(blob)
    return {
        "name": name,
        "file": f"{name}.img",
        "sha256": sha256(blob),
        "bytes": len(blob),
        "oracle_crc64": digest,
    }


# ----------------------------------------------------------------------
# The store-family modules
# ----------------------------------------------------------------------

_SCRATCH = ("t0", "t1", "t2", "t4", "t5", "t6", "a1", "a2")
_SAVED = ("s0", "s1", "s2")


def _body(module, name, rng, filler, callees):
    """Prologue, ALU filler, a loop and a diamond, calls to earlier
    routines, a callee-saved spill on some routines, epilogue."""
    saved = _SAVED[rng.randrange(len(_SAVED))] if rng.random() < 0.3 else None
    module.routine(name)
    module.memory("lda", "sp", -16, "sp")
    module.memory("stq", "ra", 0, "sp")
    if saved:
        module.memory("stq", saved, 8, "sp")
    module.li("t0", rng.randrange(1, 1 << 15))
    for index in range(filler):
        dst = _SCRATCH[rng.randrange(len(_SCRATCH))]
        src = _SCRATCH[rng.randrange(len(_SCRATCH))]
        module.op(("addq", "subq", "xor", "bis")[index % 4],
                  src, rng.randrange(1, 200), dst)
    module.li("t6", 3)
    module.label(f"{name}_loop")
    module.op("subq", "t6", 1, "t6")
    module.op("addq", "t0", "t6", "t0")
    module.branch("bne", "t6", f"{name}_loop")
    module.branch("beq", "t0", f"{name}_zero")
    module.op("addq", "t0", 1, "v0")
    module.br(f"{name}_join")
    module.label(f"{name}_zero")
    module.op("bis", "zero", "t0", "v0")
    module.label(f"{name}_join")
    if saved:
        module.op("addq", "v0", 1, saved)
    for callee in callees:
        module.op("bis", "zero", "v0", "a0")
        module.bsr(callee)
    module.op("addq", "v0", 1, "v0")
    if saved:
        module.memory("ldq", saved, 8, "sp")
    module.memory("ldq", "ra", 0, "sp")
    module.memory("lda", "sp", 16, "sp")
    module.ret()


def _link(seed: int, version: int, library, names) -> bytes:
    from repro.program.linker import link_modules

    app = _app(seed, version, names)
    return link_modules([app, library], entry="main").to_bytes()


def _library(seed: int, scale: float):
    from repro.program.linker import ObjectModule
    from repro.workloads.shapes import shape_by_name

    shape = shape_by_name("gcc").scaled(scale)
    rng = random.Random(seed)
    count = shape.routines - 4
    filler = max(4, shape.instructions // shape.routines - 22)
    calls = max(1, min(7, round(shape.calls_per_routine / 1.5)))
    library = ObjectModule("lib")
    names = [f"lib_{index:04d}" for index in range(count)]
    for index, name in enumerate(names):
        callees = rng.sample(names[:index], min(index, calls))
        _body(library, name, rng, filler, callees)
    return library, names


def _app(seed: int, version: int, names: List[str]):
    from repro.program.linker import ObjectModule

    rng = random.Random(seed * 1009 + version)
    app = ObjectModule("app")
    roots = names[-6:]
    for name in roots:
        app.extern(name)
    app.routine("main", exported=True)
    app.memory("lda", "sp", -16, "sp")
    app.memory("stq", "ra", 0, "sp")
    app.li("a0", 40 + version)
    for index in range(8 + version):
        app.op("addq", "a0", rng.randrange(1, 99),
               _SCRATCH[(index + version) % len(_SCRATCH)])
    for name in roots:
        app.bsr(name)
    app.op("addq", "v0", version, "a0")
    app.output()
    app.memory("ldq", "ra", 0, "sp")
    app.memory("lda", "sp", 16, "sp")
    app.halt()
    return app


# ----------------------------------------------------------------------
# Cache and determinism
# ----------------------------------------------------------------------


def load_inputs(workload: str, seed: int, root: Path) -> Dict[str, object]:
    """The workload's inputs for ``seed``, drawn from its cached pool.

    A pool entry is reused when it was built from the same recipes and
    sources and every image still hashes to its recorded sha256.  When
    any entry of any workload is missing, every missing entry is built
    (with its oracle answers) on up to two processes, so one first run
    in a checkout prepares the whole benchmark and later runs start
    from a full cache.
    """
    digest = inputs_digest(root)

    def entry_dir(name: str, index: int) -> Path:
        return root / CACHE_DIR / f"{name}-{index}-{digest}"

    missing = [
        (name, index)
        for name, size in POOL_SIZE.items() for index in range(size)
        if _cached_entry(entry_dir(name, index)) is None
    ]
    _build_entries([(name, index, entry_dir(name, index))
                    for name, index in missing])
    indices, rng = select(workload, seed)
    images = []
    for index in indices:
        for image in _cached_entry(entry_dir(workload, index)):
            image["path"] = str(entry_dir(workload, index) / image["file"])
            images.append(image)
    if workload == "store-family":
        # The seed also picks which app variant meets the empty store.
        images = rng.sample(images, len(images))
    return {"workload": workload, "seed": seed, "pool": indices,
            "prepared": len(missing), "images": images}


def _build_entries(jobs: List[Tuple[str, int, Path]], parallel: int = 2) -> None:
    """Build pool entries in child interpreters, ``parallel`` at a time
    (``python3 perfbench/inputs.py WORKLOAD INDEX DIR`` each)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    pending, running = list(jobs), []
    while pending or running:
        while pending and len(running) < parallel:
            name, index, out = pending.pop(0)
            running.append(subprocess.Popen(
                [sys.executable, __file__, name, str(index), str(out)],
                env=env, stdin=subprocess.DEVNULL,
            ))
        running[0].wait()
        finished = running.pop(0)
        if finished.returncode != 0:
            for process in running:
                process.wait()
            raise RuntimeError(f"building inputs failed: {finished.args[2:]}")


def _build_entry(workload: str, index: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    images = BUILDERS[workload](index, out)
    tmp = out / "entry.tmp"
    tmp.write_text(json.dumps(images, indent=1, sort_keys=True))
    os.replace(tmp, out / "entry.json")


def _cached_entry(out: Path):
    try:
        images = json.loads((out / "entry.json").read_text())
        for image in images:
            if sha256((out / image["file"]).read_bytes()) != image["sha256"]:
                return None
    except (OSError, ValueError, KeyError):
        return None
    return images


def determinism_check(seed: int) -> None:
    """The generator contract the benchmark rests on, checked on small
    shapes each run: the same seed gives the same bytes, another seed
    gives other bytes."""
    def hashes(run_seed: int):
        library, names = _library(run_seed, 0.01)
        return (
            sha256(_generate("gcc", 0.01, _generator_seed(run_seed, 0))),
            sha256(_link(run_seed, 1, library, names)),
        )

    first, again, other = hashes(seed), hashes(seed), hashes(seed + 1)
    if first != again:
        raise RuntimeError("inputs are not deterministic for a fixed seed")
    if any(a == b for a, b in zip(first, other)):
        raise RuntimeError("different seeds produced identical inputs")


if __name__ == "__main__":
    _build_entry(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
