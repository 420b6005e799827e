"""The answer corpus: a fixed list of CLI requests over all nine commands,
each stored as the sha256 of its exit code, stdout and stderr.

No answer vty gives may change, and this one test stands for that rule.
`requests` writes the manifests and machine files the list reads into a
directory and returns each request's stable id and argv. The list holds
every golden's and acceptance criterion's argv, its own seeded request
shapes for closure, subset, knowledge and machine work (it imports
nothing from vtybench/, so it does not move when the benchmark does),
--format text, --bounds overrides, usage, manifest and operational
errors, and every cap refusal.

The requests run in process, with that directory as the working
directory, so reports hold relative paths. `tests/golden/answer_corpus.json`
maps each id to its argv and digest; set REGEN_GOLDEN=1 to rewrite it.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from pathlib import Path

from vty.cli import main

from conftest import DATA_DIR, GOLDEN_DIR
from test_acceptance import CLI_COMMANDS
from test_cli import (
    DEPTHLESS_MANIFEST,
    HELP_ARGVS,
    KNOWLEDGE_FIVE,
    KNOWLEDGE_FIVE_COMMANDS,
    OTHER_USAGE_ERRORS,
)

CORPUS = GOLDEN_DIR / "answer_corpus.json"

COMMANDS = {"check-prevariety", "check-variety", "closure", "consistency", "project",
            "classify", "minimal-subsets", "fixed-output", "report-matrix"}

PACKAGED = ("shared_core.vty", "shared_core_nowitness.vty", "inconsistent_kb.vty",
            "bijective_modes.vty", "adder.rm")

# the argv behind each golden file, with data/ for the packaged files
GOLDEN_ARGVS = {
    "check_prevariety_inconsistent_kb": ("check-prevariety", "data/inconsistent_kb.vty"),
    "check_variety_shared_core": ("check-variety", "data/shared_core.vty", "--depth", "2"),
    "check_variety_shared_core_nowitness": (
        "check-variety", "data/shared_core_nowitness.vty", "--depth", "2"),
    "check_bijective_prevariety": (
        "check-variety", "data/bijective_modes.vty", "--bijective", "--mode", "prevariety"),
    "check_bijective_variety": (
        "check-variety", "data/bijective_modes.vty", "--bijective", "--mode", "variety"),
    "closure_l1_with_proofs": (
        "closure", "data/shared_core.vty", "--calculus", "L1", "--with-proofs"),
    "classify_modus_ponens": ("classify", "--axioms", "p", "(-> p q)", "--goal", "q"),
    "project_fixed_output_undecidable": ("project", "--theorem", "fixed_output_undecidable"),
    "report_matrix_seed": ("report-matrix",),
    "fixed_output_reports brute": (
        "fixed-output", "brute", "--y", "2", "--max-instructions", "2",
        "--max-registers", "1", "--inputs", "3,6", "--fuel", "64"),
    "fixed_output_reports recognize": (
        "fixed-output", "recognize", "--machine", "data/adder.rm", "--y", "1",
        "--schedule", "8,16,32,64,128"),
    **{"knowledge_five_reports " + " ".join(argv): (argv[0], "knowledge_five.vty", *argv[1:])
       for argv in KNOWLEDGE_FIVE_COMMANDS},
    **{"cli_help " + " ".join(["vty", *argv]): (*argv, "--help") for argv in HELP_ARGVS},
}

# --- seeded request shapes ----------------------------------------------------

MP_RULE = "rule mp {\n  premise a\n  premise (-> a b)\n  conclude b\n}\n"
HILBERT = ("  schema K (-> a (-> b a))\n"
           "  schema S (-> (-> a (-> b c)) (-> (-> a b) (-> a c)))\n"
           "  schema N (-> (-> (not a) (not b)) (-> b a))\n")


LETTERS = "abcdefghijkmnpqrstuvwxyz"


class Names:
    """Seeded atom names, a letter, a digit and a letter, never one twice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, count: int) -> list[str]:
        names = []
        while len(names) < count:
            rng = self.rng
            name = f"{rng.choice(LETTERS)}{rng.randrange(10)}{rng.choice(LETTERS)}"
            if name not in self.used:
                self.used.add(name)
                names.append(name)
        return names


def imp(a: str, b: str) -> str:
    return f"(-> {a} {b})"


def calculus_block(name: str, depth: int, axioms, schemas: str = "") -> str:
    lines = "".join(f"  axiom {axiom}\n" for axiom in axioms)
    return f"calculus {name} {{\n  depth {depth}\n{lines}{schemas}  use mp\n}}\n"


def manifest(depth: int, *blocks: str) -> str:
    return "\n".join([f"bounds depth={depth} atoms=20 enum=1000000 size=100000\n",
                      MP_RULE, *blocks])


def closure_requests(rng, names, write):
    """Closures of small hilbert axiom sets and of mp chain sets, each with
    and without proofs."""
    for form, depth in (("facts", 2), ("fact_imp", 1), ("neg_fact", 1), ("self_imp", 1),
                        ("chains", 3), ("chains", 2)):
        if form == "chains":
            starts, size = (3, 18) if depth == 3 else (6, 24)
            atoms = names(size)
            axioms = atoms[:starts] + [imp(atoms[i], atoms[i + starts])
                                       for i in range(size - starts)]
            schemas = ""
        else:
            a, b, c = names(3)
            axioms = {"facts": [a, b, c], "fact_imp": [a, imp(a, b)],
                      "neg_fact": [f"(not {a})", b], "self_imp": [imp(a, a), b]}[form]
            schemas = HILBERT
        rng.shuffle(axioms)
        path = write(manifest(depth, calculus_block("C", depth, axioms, schemas)))
        yield form, ("closure", path)
        yield form + " proofs", ("closure", path, "--with-proofs")


def subset_requests(rng, names, write):
    """minimal-subsets and classify on a goal chain among distractors."""
    for length, total in ((3, 5), (4, 5), (2, 5)):
        atoms = names(length)
        chain = [atoms[0], *(imp(atoms[i], atoms[i + 1]) for i in range(length - 1))]
        extra = []
        for kind in rng.sample(["branch", "into", "fact", "loose"], total - length):
            x, y = names(2)
            extra.append({"branch": imp(rng.choice(atoms[:-1]), x),
                          "into": imp(x, rng.choice(atoms[1:])),
                          "fact": x, "loose": imp(x, y)}[kind])
        axioms = chain + extra
        rng.shuffle(axioms)
        tail = ("--axioms", *axioms, "--goal", atoms[-1], "--base", "mp", "--depth",
                str(length))
        yield f"chain {length}", ("minimal-subsets", *tail)
        yield f"chain {length}", ("classify", *tail)


def knowledge_requests(rng, names, write):
    """Five components, each consistent, whose union is not: one derives an
    atom another denies."""
    count = 5
    facts, (conflict,), loose = names(count), names(1), names(3)
    hot, cold = rng.sample(range(count), 2)
    blocks, components = [], []
    for k, fact in enumerate(facts):
        a, b = rng.sample(loose, 2)
        axioms, theorems = [fact, imp(fact, imp(a, b))], [fact, imp(a, b)]
        if k == hot:
            axioms.append(imp(fact, conflict))
            theorems.append(conflict)
        if k == cold:
            axioms.append(f"(not {conflict})")
        blocks.append(calculus_block(f"L{k + 1}", 2, axioms))
        components.append(f"component K{k + 1} {{\n  calculus L{k + 1}\n  axiom-map ident\n"
                          "  theorem-map ident\n"
                          + "".join(f"  theorem {t}\n" for t in theorems) + "}\n")
    path = write(manifest(2, *blocks, "map ident identity\n", *components,
                          "prevariety KB {\n"
                          + "".join(f"  component K{k + 1}\n" for k in range(count))
                          + "  auto\n}\n"))
    yield "five", ("check-prevariety", path)
    yield "five", ("check-variety", path, "--depth", str(count))
    yield "five", ("check-variety", path, "--depth", "2", "--bijective")
    yield "five", ("consistency", path)


def machine_requests(rng, names, write):
    """A brute-force world and the adder's dovetailed recognition."""
    for _ in range(2):
        inputs = sorted(rng.sample(range(8), 2))
        yield "brute", ("fixed-output", "brute", "--y", str(rng.randrange(4)),
                        "--max-instructions", "2", "--max-registers", "1",
                        "--inputs", ",".join(map(str, inputs)), "--fuel", "64")
        yield "recognize", ("fixed-output", "recognize", "--machine", "data/adder.rm",
                            "--y", str(rng.randrange(1, 3)), "--schedule", "8,16,32,64,128")


SHAPES = {"proofs": closure_requests, "subsets": subset_requests,
          "knowledge": knowledge_requests, "machines": machine_requests}
SEEDS = (1, 2)

# --- hand-written requests ----------------------------------------------------

# the knowledge-five manifest in quasi mode
QUASI = "quasi.vty"
# files that each fail to load: a fault the reader names, and bytes that are not UTF-8
BAD_FILES = {
    "bad.vty": "widget w\n".encode(),
    "latin1.vty": "signature p\r\nbounds depth=1 # café ".encode() + b"\xff\n",
    "bot.vty": (DATA_DIR / "shared_core.vty").read_bytes().replace(
        b"rename a1 p", b"rename a1 bot", 1),
    "arabic_depth.vty": "calculus L {\n  depth ٣\n}\n".encode(),
    "arabic_bound.vty": "bounds depth=٢\n".encode(),
    "late_ref.vty": b"map ident identity\ncalculus L {\n}\ncomponent C {\n  calculus nope\n"
                    b"  axiom-map ident\n  theorem-map ident\n}\n",
}
# a program of every kind, with comments and blank lines: output is input + 1
MOVE = ("# move register 0 into register 1, then back with one more\n\n"
        "DECJZ 0 2 1   # register 0 empty: move back\nINC 1 0\n"
        "INC 0 3       # the one more\nDECJZ 1 5 4\nINC 0 3\n\nHALT\n")
MACHINES = {"loop.rm": "INC 0 0\n", "inc1.rm": "INC 1 1", "arabic.rm": "INC 0 ١\n",
            "underscore.rm": "INC 0 1_0\n", "far.rm": "INC 0 9\n", "arity.rm": "INC 0\n",
            "word.rm": "JMP 0\n", "halt_operand.rm": "HALT 0\n", "negative.rm": "INC -1 0\n",
            "move.rm": MOVE}
TWENTY = "twenty.vty"

HAND = [
    # --format text, after and before the command word
    *(("text", (*argv, "--format", "text")) for argv in (
        ("check-prevariety", "data/inconsistent_kb.vty"),
        ("check-variety", "data/shared_core_nowitness.vty", "--depth", "2"),
        ("check-variety", "data/bijective_modes.vty", "--bijective"),
        ("closure", "data/shared_core.vty", "--calculus", "L1", "--with-proofs"),
        ("consistency", "knowledge_five.vty"),
        ("project", "--theorem", "fixed_output_recognizable"),
        ("classify", "--axioms", "p", "(-> p q)", "--goal", "q"),
        ("minimal-subsets", "--axioms", "p", "q", "(-> p q)", "--goal", "q"),
        ("fixed-output", "brute", "--y", "1", "--max-instructions", "1"),
        ("fixed-output", "recognize", "--machine", "data/adder.rm", "--y", "0",
         "--schedule", "8,16"),
        ("report-matrix",),
    )),
    ("text", ("--format", "text", "closure", "data/shared_core.vty", "--calculus", "CORE")),
    ("text", ("--format", "json", "report-matrix")),
    # --bounds overrides
    *(("bounds", (argv[0], path, *argv[1:], "--bounds", f"size={size}"))
      for size in (3, 4) for path in ("knowledge_five.vty", QUASI)
      for argv in KNOWLEDGE_FIVE_COMMANDS),
    *(("bounds", ("closure", "depthless.vty", "--bounds", override))
      for override in ("depth=1", "depth=3", "size=3", "size=6", "depth=4,size=40")),
    ("bounds", ("closure", "data/shared_core.vty", "--calculus", "L1",
                "--bounds", "depth=1,size=500")),
    ("bounds", ("--bounds", "depth=2", "classify", "--axioms", "p", "(-> p q)", "--goal", "q")),
    ("bounds", ("minimal-subsets", "--axioms", "p", "q", "(-> p q)", "--goal", "q",
                "--bounds", "depth=0")),
    *(("bounds", ("classify", "--axioms", "p", "--goal", "p", "--bounds", f"depth=1,{bound}=0"))
      for bound in ("atoms", "enum", "size")),
    ("bounds", ("check-prevariety", "late_ref.vty", "--bounds", "size=0")),
    # each cap refusal, and a request just inside each of the first two
    ("cap atoms", ("classify", "--axioms", "p", "q", "r", "--goal", "p", "--base", "mp",
                   "--bounds", "atoms=2")),
    ("cap atoms", ("classify", "--axioms", "p", "q", "r", "--goal", "p", "--base", "mp",
                   "--bounds", "atoms=3")),
    ("cap subsets", ("minimal-subsets", "--axioms", *(f"a{i}" for i in range(13)),
                     "--goal", "a1", "--base", "mp")),
    ("cap subsets", ("minimal-subsets", "--axioms", *(f"a{i}" for i in range(12)),
                     "--goal", "a1", "--base", "mp")),
    ("cap enum", ("fixed-output", "brute", "--y", "0", "--max-instructions", "1000")),
    ("cap enum", ("fixed-output", "brute", "--y", "0", "--max-instructions", "1",
                  "--bounds", "enum=7")),
    ("cap steps", ("fixed-output", "brute", "--y", "5", "--fuel", "100000000",
                   "--max-instructions", "1", "--inputs", "0")),
    ("cap steps", ("fixed-output", "recognize", "--machine", "loop.rm", "--y", "5",
                   "--schedule", "1000000000")),
    ("cap tuples", ("check-variety", TWENTY, "--depth", "20")),
    ("cap size", ("minimal-subsets", "--axioms",
                  "(-> (-> (-> a b) (-> c d)) (-> (-> e f) (-> g h)))", "--goal", "z",
                  "--depth", "0", "--bounds", "size=1000")),
    ("cap size", ("closure", "data/shared_core.vty", "--calculus", "CORE",
                  "--bounds", "size=2")),
    # manifest, reference and operational errors
    ("error", ("check-prevariety", "nope.vty")),
    ("error", ("report-matrix", "seed\0.vty")),
    *(("error", ("check-prevariety", name)) for name in BAD_FILES),
    ("error", ("closure", "bot.vty", "--calculus", "L1")),
    ("error", ("closure", "data/shared_core.vty")),
    ("error", ("closure", "data/shared_core.vty", "--calculus", "nope")),
    ("error", ("check-variety", "data/shared_core.vty", "--prevariety", "nope")),
    ("error", ("consistency", "data/shared_core.vty", "--prevariety", "nope")),
    ("error", ("project", "--theorem", "nope")),
    ("error", ("fixed-output", "recognize", "--machine", "nope.rm", "--y", "1",
               "--schedule", "1,2")),
    ("error", ("fixed-output", "recognize", "--machine", "data/adder.rm", "--y", "1",
               "--schedule", "5,2")),
    *(("machine", ("fixed-output", "recognize", "--machine", name, "--y", "0",
                   "--schedule", "1,2,3")) for name in MACHINES),
    ("machine", ("fixed-output", "recognize", "--machine", "move.rm", "--y", "2",
                 "--schedule", "4,8,16")),
    ("error", ("--bounds", "width=3", "report-matrix")),
    ("error", ("fixed-output", "brute", "--y", "1", "--inputs", "1,x")),
    ("argparse", ("fixed-output", "brute", "--y=1")),
    ("error", ("classify", "--axioms", "p", "--goal", "(p")),
    # the rest of each command's options
    ("more", ("check-prevariety", "data/shared_core.vty", "--prevariety", "SHARED")),
    ("more", ("check-variety", "data/inconsistent_kb.vty", "--depth", "5")),
    ("more", ("check-variety", "knowledge_five.vty", "--depth", "3", "--bijective",
              "--mode", "prevariety")),
    ("more", ("consistency", "data/shared_core.vty")),
    ("more", ("consistency", "data/bijective_modes.vty")),
    ("more", ("closure", "data/shared_core.vty", "--calculus", "L2", "--depth", "0")),
    ("more", ("classify", "--axioms", "p", "q", "(-> p q)", "--goal", "q", "--base", "mp")),
    ("more", ("classify", "--axioms", "(-> p q)", "--goal", "q")),
    ("more", ("classify", "--axioms", "p", "(not p)", "--goal", "q", "--depth", "1")),
    ("more", ("minimal-subsets", "--axioms", "p", "(-> p q)", "(-> q r)", "r",
              "--goal", "r", "--base", "mp", "--depth", "2")),
    ("more", ("fixed-output", "brute", "--y", "0", "--max-instructions", "0",
              "--max-registers", "3")),
    ("more", ("fixed-output", "brute", "--y", "3", "--max-instructions", "2",
              "--max-registers", "2", "--inputs", "0,1,2", "--fuel", "10")),
    ("more", ("fixed-output", "recognize", "--machine", "data/adder.rm", "--y", "2",
              "--schedule", "8,16", "--max-input", "3")),
    ("more", ("report-matrix", "data/shared_core.vty")),
]


def _twenty() -> str:
    ids = [f"K{i}" for i in range(1, 21)]
    return "\n\n".join([
        "calculus L {\n  axiom p\n}", "map ident identity",
        *[f"component {cid} {{\n  calculus L\n  axiom-map ident\n  theorem-map ident\n}}"
          for cid in ids],
        "prevariety PV {\n" + "".join(f"  component {cid}\n" for cid in ids) + "}",
    ]) + "\n"


def requests(workdir: Path) -> dict[str, tuple[str, ...]]:
    """Write the files the corpus reads into `workdir` and return each
    request's id and argv, its paths relative to `workdir`."""
    (workdir / "data").mkdir()
    for name in PACKAGED:
        shutil.copy(DATA_DIR / name, workdir / "data" / name)
    five = KNOWLEDGE_FIVE.read_text(encoding="utf-8")
    texts = {"knowledge_five.vty": five, QUASI: five.replace("  auto\n", "  auto\n  quasi\n"),
             "depthless.vty": DEPTHLESS_MANIFEST, TWENTY: _twenty(), **MACHINES}
    for name, text in texts.items():
        (workdir / name).write_text(text, encoding="utf-8")
    for name, data in BAD_FILES.items():
        (workdir / name).write_bytes(data)

    out: dict[str, tuple[str, ...]] = {}

    def add(rid: str, argv) -> None:
        assert rid not in out, rid
        out[rid] = tuple(argv)

    for name, argv in GOLDEN_ARGVS.items():
        add(f"golden {name}", argv)
    for number, command in enumerate(CLI_COMMANDS, start=1):
        add(f"criterion 9 #{number:02d}", (part.format(data="data") for part in command))
    for argv, _, _ in OTHER_USAGE_ERRORS:
        add("usage: " + " ".join(argv), argv)
    for shape, make in SHAPES.items():
        for seed in SEEDS:
            rng = random.Random(f"answer corpus {shape} {seed}")
            files = []

            def write(text: str) -> str:
                name = f"{shape}{seed}_{len(files)}.vty"
                (workdir / name).write_text(text, encoding="utf-8")
                files.append(name)
                return name

            for number, (what, argv) in enumerate(make(rng, Names(rng), write), start=1):
                add(f"{shape} seed {seed} #{number:02d} {what}", argv)
    for what, argv in HAND:
        add(f"{what}: " + " ".join(argv), argv)
    return out


def answer(argv) -> str:
    """The sha256 of the exit code, stdout and stderr of one request."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    text = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_no_answer_changed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VTY_FORMAT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    corpus = {rid: {"argv": list(argv), "sha256": answer(argv)}
              for rid, argv in requests(tmp_path).items()}
    assert len(corpus) >= 200
    assert COMMANDS <= {word for entry in corpus.values() for word in entry["argv"]}
    if os.environ.get("REGEN_GOLDEN"):
        CORPUS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    stored = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = sorted(rid for rid in stored.keys() | corpus.keys()
                     if stored.get(rid) != corpus.get(rid))
    assert changed == [], (
        f"{len(changed)} of {len(corpus)} answers changed (rerun with REGEN_GOLDEN=1 if "
        "each change is intended): " + "; ".join(changed))
