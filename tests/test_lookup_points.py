"""The benchmark tracer's lookup points stay on the CLI's call path.

`perfbench/tracing.py` wraps functions where their callers look them up
(module globals and registry entries).  If a caller stops looking a
function up there, the wrapper is skipped and the per-layer metrics read 0.
`Tracer.install()` rebinds module globals for good, so the probe runs in a
subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

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
