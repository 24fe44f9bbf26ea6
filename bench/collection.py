"""Seeded synthetic test collection shaped like TREC Robust 2004.

A collection has the 249 Robust 2004 topic ids, one run file per system
with a distinct system tag, and qrels that judge a fixed pool of
documents per topic.  Every topic has at least one relevant document, so
no topic drops out of scoring.  The same seed gives byte-identical files,
whatever the depth or the number of systems asked for: qrels and each
system draw from their own random streams.

Shape of one topic:

- a universe of UNIVERSE documents, of which 5 to 120 are relevant;
- every document has an "attractiveness" that all systems share, higher
  on average for relevant documents, so systems agree on what to rank
  high and the top of most rankings is judged;
- qrels judge every relevant document plus the most attractive
  non-relevant ones, JUDGED_PER_TOPIC in all, so deeper documents are
  often unjudged, as in a real pool;
- a system ranks by attractiveness + skill x topic ease x relevance +
  noise.  Skills are evenly spread and shuffled over the tags, so pairs
  range from near-identical to far apart.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Robust 2004: topics 301-450 and 601-700, less 672 (no relevant documents).
TOPICS = tuple(str(t) for t in (*range(301, 451), *range(601, 701)) if t != 672)
UNIVERSE = 1500
JUDGED_PER_TOPIC = 300
MIN_RELEVANT, MAX_RELEVANT = 5, 120
SKILL_RANGE = (0.0, 0.3)
NOISE = 1.0

_QRELS_STREAM = 0


def _doc_ids(topic: str) -> list:
    return [f"D{topic}-{j:04d}" for j in range(UNIVERSE)]


def _topic_truth(seed: int):
    """Per topic: relevance vector, attractiveness, and ease, from the qrels stream."""
    rng = np.random.default_rng([seed, _QRELS_STREAM])
    truth = []
    for _ in TOPICS:
        n_rel = int(rng.integers(MIN_RELEVANT, MAX_RELEVANT + 1))
        rel = np.zeros(UNIVERSE, dtype=bool)
        rel[rng.choice(UNIVERSE, n_rel, replace=False)] = True
        attract = rng.normal(size=UNIVERSE) + 1.5 * rel
        ease = float(rng.uniform(0.3, 1.7))
        truth.append((rel, attract, ease))
    return truth


def qrels_text(truth) -> tuple:
    """(text, lines, relevant lines) of the qrels."""
    out = []
    n_relevant = 0
    for topic, (rel, attract, _) in zip(TOPICS, truth):
        docs = _doc_ids(topic)
        nonrel = np.flatnonzero(~rel)
        n_nonrel = JUDGED_PER_TOPIC - int(rel.sum())
        popular = nonrel[np.argsort(-attract[nonrel], kind="stable")[:n_nonrel]]
        judged = np.sort(np.concatenate([np.flatnonzero(rel), popular]))
        for j in judged:
            out.append(f"{topic} 0 {docs[j]} {int(rel[j])}\n")
        n_relevant += int(rel.sum())
    return "".join(out), len(out), n_relevant


def system_skills(seed: int, n_systems: int) -> list:
    """Skill per system index: evenly spread, shuffled over the tags."""
    rng = np.random.default_rng([seed, 1, n_systems])
    skills = np.linspace(*SKILL_RANGE, n_systems)
    return [float(s) for s in rng.permutation(skills)]


def run_text(seed: int, system: int, skill: float, depth: int, truth) -> tuple:
    """(text, lines) of one system's run, `depth` documents per topic."""
    rng = np.random.default_rng([seed, 2, system])
    tag = f"sys{system:03d}"
    out = []
    for topic, (rel, attract, ease) in zip(TOPICS, truth):
        docs = _doc_ids(topic)
        score = attract + skill * ease * rel + rng.normal(scale=NOISE, size=UNIVERSE)
        order = np.argsort(-score, kind="stable")[:depth]
        for rank, j in enumerate(order, start=1):
            out.append(f"{topic} Q0 {docs[j]} {rank} {score[j]:.6f} {tag}\n")
    return "".join(out), len(out)


def write_collection(directory: Path, seed: int, n_systems: int, depth: int) -> dict:
    """Write runs/ and qrels.txt under directory; return the manifest.

    The manifest maps each written file to its line count and records the
    shape, the relevant share and each system's skill.  It is written
    beside (not inside) runs/, because the CLI reads every file there.
    """
    runs_dir = directory / "runs"
    runs_dir.mkdir(parents=True)
    truth = _topic_truth(seed)
    text, n_lines, n_relevant = qrels_text(truth)
    qrels_path = directory / "qrels.txt"
    qrels_path.write_text(text, encoding="ascii")
    lines = {str(qrels_path): n_lines}
    skills = system_skills(seed, n_systems)
    runs = []
    for system, skill in enumerate(skills):
        text, n = run_text(seed, system, skill, depth, truth)
        path = runs_dir / f"sys{system:03d}.run"
        path.write_text(text, encoding="ascii")
        lines[str(path)] = n
        runs.append(str(path))
    manifest = {
        "seed": seed,
        "topics": len(TOPICS),
        "systems": n_systems,
        "depth": depth,
        "qrels": str(qrels_path),
        "runs": runs,
        "runs_dir": str(runs_dir),
        "lines": lines,
        "qrels_relevant_share": n_relevant / n_lines,
        "skills": {f"sys{i:03d}": s for i, s in enumerate(skills)},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
