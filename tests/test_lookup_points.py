"""The benchmark tracer's lookup points stay on the CLI's call path.

`perfbench/tracing.py` wraps functions where their callers look them up
(module globals and registry entries).  If a caller stops looking a
function up there, the wrapper is skipped and the per-layer metrics read 0.
`Tracer.install()` rebinds module globals for good, so the probes run in
subprocesses.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import NAME, PARENT, Tracer
from swiptcran import cli

tracer = Tracer()
tracer.install()
single, longterm, out = sys.argv[3:]
cli.main(["single-slot", "--config", single, "--out", out + ".single.csv"])
first = len(tracer.spans)
cli.main(["longterm", "--config", longterm, "--out", out + ".longterm.csv"])
spans = tracer.spans
def parent(s):
    return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
with open(out, "w", encoding="utf-8") as fh:
    json.dump({
        "single": [[s[NAME], parent(s)] for s in spans[:first]],
        "longterm": [[s[NAME], parent(s)] for s in spans[first:]],
    }, fh)
"""

TOPOLOGY = "topology.n_it = 3\ntopology.n_et = 4\nrun.n_trials = 1\n"


def test_every_division_span_is_recorded(tmp_path):
    single = tmp_path / "single.conf"
    single.write_text(TOPOLOGY + "run.algorithms = alg1, alg2, brute, all-fet, all-met\n",
                      encoding="utf-8")
    longterm = tmp_path / "longterm.conf"
    longterm.write_text(TOPOLOGY + "run.q_training = 2\nrun.q_longterm = 1\n", encoding="utf-8")
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(single), str(longterm), str(out)],
        cwd=tmp_path, check=True, capture_output=True, timeout=300,
    )
    spans = json.loads(out.read_text(encoding="utf-8"))
    single = [name for name, _ in spans["single"]]
    for alg in ("alg1", "alg2", "brute", "all-fet", "all-met"):
        assert f"division.{alg}" in single
    # a search builds each SDP once, through the traced builder, and a miss
    # solves that build: no build sits under the solve
    builds = [parent for name, parent in spans["single"] if name == "beamform.build_sdp"]
    assert builds
    assert all(parent.startswith("division.") for parent in builds)
    assert ["division.alg2", "longterm.training_stage"] in spans["longterm"]
    # the long-term stage builds its slot problems through the traced builder
    assert ["beamform.build_sdp", "longterm.longterm_stage"] in spans["longterm"]


METRICS_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import NAME, Tracer
from swiptcran import cli

tracer = Tracer()
tracer.install()
out, argv = sys.argv[3], sys.argv[4:]
assert cli.main(argv) == 0
metrics = tracer.metrics(n_rows=0)
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"solves": sum(s[NAME] == "sdp.solve" for s in tracer.spans),
               "metrics": sorted(metrics)}, fh)
"""


@pytest.mark.parametrize(
    "mode, workload, trials",
    [("sweep", "sweep-heuristics", 1), ("single-slot", "reference-infeasible", 2)],
)
def test_traced_runs_stay_computable(tmp_path, mode, workload, trials):
    # the tracer's solve metrics are medians over its `sdp.solve` spans, so
    # a run that made every solve in batches would leave them undefined; at
    # the infeasible 4-IT load every solve is a search's opening
    conf = ROOT / "perfbench" / "conf" / f"{workload}.conf"
    out = tmp_path / "metrics.json"
    subprocess.run(
        [sys.executable, "-c", METRICS_PROBE, str(ROOT / "src"), str(ROOT / "perfbench"), str(out),
         mode, "--config", str(conf), "--seed", "0", "--trials", str(trials),
         "--out", str(tmp_path / "rows.csv")],
        cwd=tmp_path, check=True, capture_output=True, timeout=300,
    )
    probe = json.loads(out.read_text(encoding="utf-8"))
    assert probe["solves"] >= 1
    assert "sdp.solve_ms_p50" in probe["metrics"]


def test_traced_longterm_counts_training_solves_only(tmp_path):
    # the long-term stage evaluates through division.evaluate_all, which
    # solves its 150 problems as batches: no solve_division span sits under
    # the stage, and training's 22 lone solves (32 less the 10 openings
    # solved as one batch) keep theirs
    conf = ROOT / "perfbench" / "conf" / "longterm.conf"
    out = tmp_path / "spans.json"
    probe = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import NAME, Tracer
from swiptcran import cli

tracer = Tracer()
tracer.install()
assert cli.main(sys.argv[4:]) == 0
spans = tracer.spans
solves = [i for i, s in enumerate(spans) if s[NAME] == "beamform.solve_division"]
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump({"solves": len(solves),
               "in_stage": sum(tracer._ancestor(i, {"longterm.longterm_stage"}) >= 0 for i in solves)}, fh)
"""
    subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src"), str(ROOT / "perfbench"), str(out),
         "longterm", "--config", str(conf), "--seed", "0", "--trials", "1",
         "--out", str(tmp_path / "rows.csv")],
        cwd=tmp_path, check=True, capture_output=True, timeout=300,
    )
    assert json.loads(out.read_text(encoding="utf-8")) == {"solves": 22, "in_stage": 0}
