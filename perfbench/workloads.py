"""Benchmark workloads: seeded input generators and output checks.

Each workload turns a seed into input files plus the argv of one `alignsig`
CLI invocation, and returns a check that inspects that invocation's outputs.
The checks use their own arithmetic (set algebra, scipy's binomial
distribution, an integer Levenshtein oracle, the golden files) and never call
into the package under test.

Why each workload exists is recorded in BENCHMARK.json; in short:

- anatomy-bergmann: the paper's headline task; almost all time is in fwer.
- alignments-cfp: file ingest and discordant counting at OAEI scale.
- largebio-midp: large discordant totals, where the exact mid-p tails dominate.
- match-levenshtein: the string matcher's similarity matrix.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ALPHA = "0.05"
BERGMANN_CAP = "10"

# Ranking of the OAEI 2016 anatomy systems under IFP, mid-p and Bergmann at
# alpha 0.05, as published with the method.
PUBLISHED_ANATOMY_RANKING = [
    "AML",
    "CroMatcher",
    "LYAM & XMap",
    "FCA-Map",
    "Lily",
    "LogMapLite & LPHOM",
    "Alin",
    "DKP-AOM",
]


@dataclass
class Prepared:
    """One workload instance: CLI argv, its output files and a check.

    `check(stdout)` returns None when the invocation's outputs are correct and
    a one-line description of the first problem otherwise.
    """

    argv: List[str]
    outputs: List[Path]
    check: Callable[[str], Optional[str]]


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """n draws from U(lo, hi), one per equal-width stratum, in random order.

    Stratifying keeps the multiset of sizes nearly the same across seeds, so
    the work per operation does not swing with the seed while the inputs do.
    """
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _compare_options(perspective: str, test: str, correction: str) -> List[str]:
    return [
        "--perspective", perspective, "--test", test, "--correction", correction,
        "--mode", "nxn", "--alpha", ALPHA, "--bergmann-cap", BERGMANN_CAP,
    ]


def _load_report(path: Path) -> dict:
    return json.loads(path.read_text("utf-8"))


# --------------------------------------------------------------------------
# anatomy-bergmann


def prepare_anatomy(seed: int, workdir: Path, root: Path) -> Prepared:
    """The bundled anatomy-ifp matrix; the input is fixed, so `seed` is unused."""
    dot, report = workdir / "graph.dot", workdir / "report.json"
    golden = root / "tests" / "golden"
    golden_dot = (golden / "anatomy_ifp_bergmann.dot").read_bytes()
    golden_json = (golden / "anatomy_ifp_bergmann.json").read_bytes()
    argv = [
        "compare", "--matrix", str(root / "src" / "alignsig" / "data" / "anatomy_ifp.tsv"),
        *_compare_options("ifp", "midp", "bergmann"),
        "--dot", str(dot), "--report", str(report),
    ]

    def check(stdout: str) -> Optional[str]:
        return check_anatomy(stdout, dot.read_bytes(), report.read_bytes(),
                             golden_dot, golden_json)

    return Prepared(argv, [dot, report], check)


def check_anatomy(stdout: str, dot: bytes, report: bytes,
                  golden_dot: bytes, golden_json: bytes) -> Optional[str]:
    if dot != golden_dot:
        return "DOT differs from tests/golden"
    if report != golden_json:
        return "JSON report differs from tests/golden"
    if stdout.splitlines() != PUBLISHED_ANATOMY_RANKING:
        return f"ranking {stdout.splitlines()!r} is not the published one"
    return None


# --------------------------------------------------------------------------
# alignments-cfp

ALIGN_REFERENCE = 4500
ALIGN_SYSTEMS = 20
_SRC_IRI = "http://mouse.owl#MA_{:07d}"
_TGT_IRI = "http://human.owl#NCI_C{:06d}"
_XML_HEAD = (
    '<?xml version="1.0" encoding="utf-8"?>\n'
    '<rdf:RDF xmlns="http://knowledgeweb.semanticweb.org/heterogeneity/alignment"\n'
    '  xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
    '  xmlns:xsd="http://www.w3.org/2001/XMLSchema#">\n'
    "<Alignment>\n  <xml>yes</xml>\n  <level>0</level>\n  <type>??</type>\n"
)
_XML_CELL = (
    "  <map>\n    <Cell>\n"
    '      <entity1 rdf:resource="{}"/>\n'
    '      <entity2 rdf:resource="{}"/>\n'
    '      <measure rdf:datatype="xsd:float">{}</measure>\n'
    "      <relation>=</relation>\n"
    "    </Cell>\n  </map>\n"
)
_XML_TAIL = "</Alignment>\n</rdf:RDF>\n"

Pair = Tuple[str, str]


def generate_alignments(seed: int, n_reference: int = ALIGN_REFERENCE,
                        n_systems: int = ALIGN_SYSTEMS):
    """A reference alignment and system alignments of (source, target) pairs.

    Recall is stratified over 0.55-0.95 and the false-positive share of each
    system's output over 2-30%. Returns (reference, [(name, rows)]), where
    rows are a system's file lines in order, ~1% of them duplicates.
    """
    rng = random.Random(seed)
    n_ids = int(n_reference * 1.5)
    sources = rng.sample(range(n_ids), n_reference)
    targets = rng.sample(range(n_ids), n_reference)
    reference = [(_SRC_IRI.format(s), _TGT_IRI.format(t)) for s, t in zip(sources, targets)]
    ref_set = set(reference)
    recalls = stratified(rng, n_systems, 0.55, 0.95)
    fp_shares = stratified(rng, n_systems, 0.02, 0.30)
    systems = []
    for k in range(n_systems):
        found = rng.sample(reference, round(recalls[k] * n_reference))
        n_fp = round(len(found) * fp_shares[k] / (1.0 - fp_shares[k]))
        false = set()
        while len(false) < n_fp:
            pair = (_SRC_IRI.format(rng.randrange(n_ids)), _TGT_IRI.format(rng.randrange(n_ids)))
            if pair not in ref_set:
                false.add(pair)
        rows = found + sorted(false)
        rows += rng.sample(rows, len(rows) // 100)
        rng.shuffle(rows)
        systems.append((f"S{k:02d}", rows))
    return reference, systems


def expected_in_favor(reference: Sequence[Pair], systems) -> Dict[Tuple[str, str], int]:
    """CFP in-favor counts by set algebra: |(Ai & R) - Aj| + |Aj - Ai - R|."""
    R = set(reference)
    sets = {name: set(rows) for name, rows in systems}
    out = {}
    for a, b in combinations(sorted(sets), 2):
        A, B = sets[a], sets[b]
        out[(a, b)] = len((A & R) - B) + len(B - A - R)
        out[(b, a)] = len((B & R) - A) + len(A - B - R)
    return out


def _confidence(rng: random.Random) -> str:
    return f"{rng.uniform(0.5, 1.0):.4f}"


def write_alignments(workdir: Path, seed: int, reference, systems) -> List[str]:
    """Reference as TSV; even systems as TSV, odd ones as Alignment XML."""
    rng = random.Random(seed ^ 0x5EED)
    (workdir / "reference.tsv").write_text(
        "".join(f"{s}\t{t}\n" for s, t in reference), "utf-8")
    args = []
    for k, (name, rows) in enumerate(systems):
        if k % 2 == 0:
            path = workdir / f"{name}.tsv"
            path.write_text("# source\ttarget\trelation\tconfidence\n" + "".join(
                f"{s}\t{t}\t=\t{_confidence(rng)}\n" for s, t in rows), "utf-8")
        else:
            path = workdir / f"{name}.rdf"
            path.write_text(_XML_HEAD + "".join(
                _XML_CELL.format(s, t, _confidence(rng)) for s, t in rows) + _XML_TAIL, "utf-8")
        args += ["--alignment", f"{name}={path}"]
    return args


def prepare_alignments(seed: int, workdir: Path, root: Path) -> Prepared:
    reference, systems = generate_alignments(seed, ALIGN_REFERENCE, ALIGN_SYSTEMS)
    system_args = write_alignments(workdir, seed, reference, systems)
    expected = expected_in_favor(reference, systems)
    report = workdir / "report.json"
    argv = [
        "compare", "--reference", str(workdir / "reference.tsv"), *system_args,
        *_compare_options("cfp", "midp", "holm"), "--report", str(report),
    ]
    return Prepared(argv, [report],
                    lambda stdout: check_pair_counts(_load_report(report), expected))


def check_pair_counts(report: dict, expected: Dict[Tuple[str, str], int]) -> Optional[str]:
    """Every unordered pair reported once, with n_i/n_j equal to `expected`."""
    pairs = report["pairs"]
    seen = set()
    for rec in pairs:
        a, b = rec["systems"]
        seen.add((a, b))
        want = (expected.get((a, b)), expected.get((b, a)))
        if (rec["n_i"], rec["n_j"]) != want:
            return f"pair ({a}, {b}): n_i/n_j {rec['n_i']}/{rec['n_j']}, expected {want}"
        if not 0.0 <= rec["raw_p"] <= rec["apv"] <= 1.0:
            return f"pair ({a}, {b}): raw_p {rec['raw_p']} / apv {rec['apv']} out of order"
    if len(pairs) != len(seen) or len(seen) * 2 != len(expected):
        return f"{len(pairs)} pair records for {len(expected) // 2} pairs"
    return None


# --------------------------------------------------------------------------
# largebio-midp

LARGEBIO_SYSTEMS = 10
LARGEBIO_TOTALS = (2_000, 40_000)


def generate_largebio(seed: int, n_systems: int = LARGEBIO_SYSTEMS,
                      totals: Tuple[int, int] = LARGEBIO_TOTALS):
    """A discordant matrix with pair totals log-uniform (stratified) in `totals`.

    Each system has a latent strength; the split of a pair's total leans
    towards the stronger system, so some pairs differ and some do not.
    """
    rng = random.Random(seed)
    names = [f"LB{k}" for k in range(n_systems)]
    strength = list(range(n_systems))
    rng.shuffle(strength)
    pairs = list(combinations(range(n_systems), 2))
    lo, hi = math.log(totals[0]), math.log(totals[1])
    logs = stratified(rng, len(pairs), lo, hi)
    m = [[0] * n_systems for _ in range(n_systems)]
    for (i, j), log_total in zip(pairs, logs):
        total = round(math.exp(log_total))
        lean = 0.5 + 0.004 * (strength[i] - strength[j])
        n_i = round(total * lean + rng.gauss(0.0, math.sqrt(total) / 2))
        n_i = min(total, max(0, n_i))
        m[i][j], m[j][i] = n_i, total - n_i
    return names, m


def matrix_tsv(names: Sequence[str], m) -> str:
    lines = ["\t".join(names)]
    for name, row in zip(names, m):
        lines.append("\t".join([name, *map(str, row)]))
    return "\n".join(lines) + "\n"


def midp_oracle(n_i: int, n_j: int) -> float:
    """Two-sided mid-p of McNemar's test from scipy's binomial distribution."""
    from scipy.stats import binom

    n, b = n_i + n_j, max(n_i, n_j)
    two_sided = min(1.0, 2.0 * float(binom.sf(b - 1, n, 0.5)))
    return min(1.0, max(0.0, two_sided - float(binom.pmf(b, n, 0.5))))


def prepare_largebio(seed: int, workdir: Path, root: Path) -> Prepared:
    names, m = generate_largebio(seed, LARGEBIO_SYSTEMS, LARGEBIO_TOTALS)
    matrix = workdir / "matrix.tsv"
    matrix.write_text(matrix_tsv(names, m), "utf-8")
    expected = {}
    for i, j in combinations(range(len(names)), 2):
        expected[(names[i], names[j])] = m[i][j]
        expected[(names[j], names[i])] = m[j][i]
    oracle = {(a, b): midp_oracle(expected[(a, b)], expected[(b, a)])
              for a, b in combinations(sorted(names), 2)}
    report = workdir / "report.json"
    argv = ["compare", "--matrix", str(matrix), *_compare_options("ifp", "midp", "shaffer"),
            "--report", str(report)]

    def check(stdout: str) -> Optional[str]:
        rep = _load_report(report)
        return check_pair_counts(rep, expected) or check_midp(rep, oracle)

    return Prepared(argv, [report], check)


MIDP_REL_TOL = 1e-9
MIDP_ABS_TOL = 1e-15


def check_midp(report: dict, oracle: Dict[Tuple[str, str], float]) -> Optional[str]:
    for rec in report["pairs"]:
        a, b = rec["systems"]
        want, got = oracle[(a, b)], rec["raw_p"]
        if not math.isclose(got, want, rel_tol=MIDP_REL_TOL, abs_tol=MIDP_ABS_TOL):
            return f"pair ({a}, {b}): raw_p {got!r}, scipy mid-p {want!r}"
    return None


# --------------------------------------------------------------------------
# match-levenshtein

MATCH_LABELS = 200
MATCH_THRESHOLD = "0.8"
# No two labels that are not a planted pair may be this similar, so a
# planted pair of equal normalized labels beats any swap in the assignment.
MATCH_CROSS_LIMIT = 0.5

_WORDS = (
    "abdominal acromial adipose adrenal alveolar ampulla anal annular aortic apical "
    "arcuate artery atrial auditory axillary basal basilar biceps bile bladder bone "
    "brachial bronchial buccal bursa canal capsule cardiac carotid carpal cartilage "
    "caudal cecum cerebral cervical chordae ciliary clavicle cochlear colic condyle "
    "cornea coronary cortex cranial cricoid crural cubital cystic deltoid dental "
    "dermis digital distal dorsal duct duodenal dural ear elbow enamel epidermis "
    "esophageal ethmoid facial femoral fibula follicle foramen frontal fundus gastric "
    "gland gluteal gonad hepatic hilum humerus hyoid ileal iliac incisor inguinal "
    "intestine iris jejunal jugular kidney labial lacrimal laryngeal lateral lens "
    "ligament lingual lobe lumbar lymph macula mammary mandible marrow medial "
    "medulla meniscus mesentery metatarsal molar muscle nasal neck nerve nucleus "
    "occipital ocular olfactory optic oral orbital osseous otic ovary palatal "
    "pancreas parietal patella pelvic pericardium phalanx pharynx pineal pituitary "
    "plantar pleural plexus popliteal portal prostate proximal pubic pulmonary "
    "pyloric radial rectal renal retina rib sacral saphenous scapula sciatic septum "
    "sinus skull soleus spinal spleen sternal synovial tarsal temporal tendon "
    "thalamus thoracic thymus thyroid tibial tongue tonsil trachea ulnar ureter "
    "urethra uterine vagal valve vascular venous ventral vertebra vesicle zygomatic"
).split()
_SUFFIXES = ("s", "es", " region", " part")
_KINDS = ("case", "separator", "suffix", "unrelated")
_KIND_WEIGHTS = (30, 25, 20, 25)


def normalize(label: str) -> str:
    """Case-fold, '_' and '-' to space, collapse whitespace (the matcher's contract)."""
    return " ".join(label.casefold().replace("_", " ").replace("-", " ").split())


def levenshtein_matrix(a: Sequence[str], b: Sequence[str]):
    """Integer edit distances between every string of `a` and every one of `b`.

    The DP runs over string positions; each step updates all pairs at once.
    """
    import numpy as np

    la = np.array([len(s) for s in a])
    lb = np.array([len(s) for s in b])
    La, Lb = int(la.max()), int(lb.max())
    ca = np.full((len(a), La), -1, dtype=np.int32)
    cb = np.full((len(b), Lb), -2, dtype=np.int32)
    for k, s in enumerate(a):
        ca[k, :len(s)] = [ord(c) for c in s]
    for k, s in enumerate(b):
        cb[k, :len(s)] = [ord(c) for c in s]
    # prev[j] holds D[i-1][j] for every (a, b) pair
    prev = np.broadcast_to(
        np.arange(Lb + 1, dtype=np.int16)[:, None, None], (Lb + 1, len(a), len(b))).copy()
    dist = np.zeros((len(a), len(b)), dtype=np.int64)
    cols = np.arange(len(b))
    for i in range(1, La + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        neq = (ca[:, i - 1][:, None, None] != cb[None, :, :]).transpose(2, 0, 1)
        for j in range(1, Lb + 1):
            np.minimum(prev[j] + 1, cur[j - 1] + 1, out=cur[j])
            np.minimum(cur[j], prev[j - 1] + neq[j - 1], out=cur[j])
        rows = np.nonzero(la == i)[0]
        if rows.size:
            dist[rows] = cur[lb[None, :], rows[:, None], cols[None, :]]
        prev = cur
    return dist


def lev_similarity(dist: int, a: str, b: str) -> float:
    """The matcher's Levenshtein similarity, 1 - d / max length, from a distance."""
    return 1.0 - dist / max(len(a), len(b))


_CASES = ("lower", "title", "upper")
_SEPARATORS = (" ", "_", "-")


def _style(words: Sequence[str], case: str, sep: str) -> str:
    text = sep.join(words)
    return {"lower": text, "title": text.title(), "upper": text.upper()}[case]


def _candidates(rng: random.Random, n: int) -> List[Tuple[str, str, str]]:
    """n (kind, source label, target label) triples."""
    out = []
    for _ in range(n):
        words = rng.sample(_WORDS, rng.choice((2, 3)))
        kind = rng.choices(_KINDS, _KIND_WEIGHTS)[0]
        case, sep = rng.choice(_CASES), rng.choice(_SEPARATORS)
        src = _style(words, case, sep)
        if kind == "case":
            tgt = _style(words, rng.choice([c for c in _CASES if c != case]), sep)
        elif kind == "separator":
            tgt = _style(words, case, rng.choice([s for s in _SEPARATORS if s != sep]))
        elif kind == "suffix":
            tgt = _style(words, case, sep) + rng.choice(_SUFFIXES)
        else:
            tgt = _style(rng.sample(_WORDS, len(words)), case, sep)
        out.append((kind, src, tgt))
    return out


@dataclass
class LabelLists:
    source: List[Tuple[str, str]]       # (id, label)
    target: List[Tuple[str, str]]
    kinds: Dict[Tuple[str, str], str]   # planted (source id, target id) -> kind
    dist: Dict[Tuple[str, str], int]    # every (source id, target id) -> edit distance
    norm: Dict[str, str]                # id -> normalized label


def generate_labels(seed: int, n: int = MATCH_LABELS) -> LabelLists:
    """n source and n target labels with planted case, separator and suffix variants.

    Candidates are accepted greedily while every cross pair stays below
    MATCH_CROSS_LIMIT; the targets are then shuffled.
    """
    import numpy as np

    rng = random.Random(seed)
    pool = _candidates(rng, 2 * n)
    for _ in range(4):
        src_norm = [normalize(s) for _, s, _ in pool]
        tgt_norm = [normalize(t) for _, _, t in pool]
        d = levenshtein_matrix(src_norm, tgt_norm)
        longer = np.maximum.outer([len(x) for x in src_norm], [len(y) for y in tgt_norm])
        close = 1.0 - d / longer >= MATCH_CROSS_LIMIT
        chosen: List[int] = []
        for c, (kind, _, _) in enumerate(pool):
            if kind == "unrelated" and close[c, c]:
                continue
            if not (close[c, chosen].any() or close[chosen, c].any()):
                chosen.append(c)
                if len(chosen) == n:
                    break
        if len(chosen) == n:
            break
        pool += _candidates(rng, n)
    else:
        raise RuntimeError(f"seed {seed}: found only {len(chosen)} of {n} distinct labels")
    src_ids = [f"MA_{v:07d}" for v in rng.sample(range(10 ** 6), n)]
    tgt_ids = [f"NCI_C{v:05d}" for v in rng.sample(range(10 ** 5), n)]
    source = [(src_ids[k], pool[c][1]) for k, c in enumerate(chosen)]
    target = [(tgt_ids[k], pool[c][2]) for k, c in enumerate(chosen)]
    rng.shuffle(target)
    kinds = {(src_ids[k], tgt_ids[k]): pool[c][0] for k, c in enumerate(chosen)}
    dist = {(src_ids[k], tgt_ids[m]): int(d[ci, cj])
            for k, ci in enumerate(chosen) for m, cj in enumerate(chosen)}
    norm = {i: normalize(label) for i, label in source + target}
    return LabelLists(source, target, kinds, dist, norm)


def label_tsv(rows: Sequence[Tuple[str, str]]) -> str:
    return "".join(f"{i}\t{label}\n" for i, label in rows)


def prepare_match(seed: int, workdir: Path, root: Path) -> Prepared:
    labels = generate_labels(seed, MATCH_LABELS)
    src, tgt, out = workdir / "source.tsv", workdir / "target.tsv", workdir / "match.tsv"
    src.write_text(label_tsv(labels.source), "utf-8")
    tgt.write_text(label_tsv(labels.target), "utf-8")
    argv = ["match", "--source", str(src), "--target", str(tgt), "--metric", "levenshtein",
            "--threshold", MATCH_THRESHOLD, "--name", "levenshtein", "--output", str(out)]
    return Prepared(argv, [out],
                    lambda stdout: check_match(out.read_text("utf-8"), labels))


def check_match(output: str, labels: LabelLists) -> Optional[str]:
    """Kept pairs are one-to-one, score the oracle similarity and clear the
    threshold; every planted pair of equal normalized labels is kept at 1.0."""
    threshold = float(MATCH_THRESHOLD)
    kept = {}
    used_targets = set()
    for line in output.splitlines():
        source, target, relation, confidence = line.split("\t")
        if (source, target) not in labels.dist or relation != "=":
            return f"unexpected correspondence {line!r}"
        if source in kept or target in used_targets:
            return f"{source} or {target} matched twice"
        used_targets.add(target)
        kept[source] = float(confidence)
        want = lev_similarity(labels.dist[(source, target)],
                              labels.norm[source], labels.norm[target])
        if kept[source] != want or want < threshold:
            return f"({source}, {target}): confidence {confidence}, oracle {want!r}"
    for (source, target), kind in labels.kinds.items():
        if kind in ("case", "separator") and kept.get(source) != 1.0:
            return f"planted {kind} variant ({source}, {target}) not kept at 1.0"
    return None


WORKLOADS = {
    "anatomy-bergmann": prepare_anatomy,
    "alignments-cfp": prepare_alignments,
    "largebio-midp": prepare_largebio,
    "match-levenshtein": prepare_match,
}
