"""The README's simulated walkthroughs run as written, in order, through
``python -m simobs.cli`` in a shell, and its Python blocks run as
written on a simulated scene."""
import os
import re
import subprocess
import sys
from pathlib import Path

import simobs
from conftest import mp4_file, trak_box
from simobs.simulate import packetize, preset_scenario, render_scenario, write_pcap

README = Path(__file__).parents[1] / "README.md"

WALKTHROUGH = """\
simobs simulate --preset easy --seed 7 --out-dir scene/ --pcap-out scene/capture.pcap
simobs extract --pcap scene/capture.pcap --start 0 --out scene/captured.csv
simobs analyze --reference scene/reference.csv --devices scene/captured.csv \\
       --format json --out scene/report.json
simobs classify --report scene/report.json --thresholds default \\
       --format json --out scene/verdicts.json
"""

TRAINING = """\
for regime in near far; do
  for seed in 1 2 3 4 5 6; do
    simobs simulate --preset $regime --seed $seed --out-dir corpus/$regime-$seed
    simobs analyze --reference corpus/$regime-$seed/reference.csv --devices corpus/$regime-$seed/devices.csv \\
           --manifest corpus/$regime-$seed/manifest.json --out corpus/$regime-$seed/samples.json
  done
done
python -c 'import glob, json; print(json.dumps([row for f in sorted(glob.glob("corpus/*/samples.json")) for row in json.load(open(f))]))' > samples.json
simobs train --samples samples.json --layers 13,13,13 --seed 1 --out model.json
simobs classify --report scene/report.json --model model.json --format json
simobs grid-search --samples samples.json --folds 10 --seed 1 --out grid.json
"""

EVALUATION = """\
simobs converge --preset easy70 --trials 40 --seed 0 --out curve.csv
simobs portability --samples samples.json --partition-tag regime --trainer kld --out matrix.csv
simobs agreement --samples samples.json --out agreement.json
"""


def test_walkthroughs_run_as_written(tmp_path):
    readme = README.read_text()
    for block in (WALKTHROUGH, TRAINING, EVALUATION):
        assert f"```sh\n{block}```" in readme, block.splitlines()[0]
    shell = 'simobs() { "$PYTHON" -m simobs.cli "$@"; }\npython() { "$PYTHON" "$@"; }\nset -e\n'
    src = str(Path(simobs.__file__).parents[1])
    env = {**os.environ, "PYTHON": sys.executable,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(["bash", "-c", shell + WALKTHROUGH + TRAINING + EVALUATION], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "scene/captured.csv").read_text() == (tmp_path / "scene/devices.csv").read_text()
    for name in ("scene/verdicts.json", "model.json", "grid.json", "curve.csv", "matrix.csv", "agreement.json"):
        assert (tmp_path / name).stat().st_size > 0, name
    assert (tmp_path / "matrix.csv").read_text().startswith("train\\test,far,near,both\n")


def test_python_blocks_run_as_written(tmp_path, monkeypatch, capsys):
    """The library example, then the two-step similarity pass on its
    devices, then the event binning, as README.md shows them, on the
    capture and the reference recording of one simulated scene."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    dataset = render_scenario(preset_scenario("easy", 7))
    frames = [(tr.device_id, packetize(tr.step_bytes, 1.0, tr.delay)) for tr in dataset.traces]
    (tmp_path / "capture.pcap").write_bytes(write_pcap(frames))
    sizes = dataset.reference_series.values.tolist()  # one video sample per 1 s step
    (tmp_path / "ref.mp4").write_bytes(mp4_file(trak_box(1, "vide", sizes=sizes, deltas=[(len(sizes), 1)])))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert capsys.readouterr().out == "02:00:00:00:01:01 looks like a camera watching this scene\n"
    assert len(namespace["values"]) == len(namespace["devices"]) == len(dataset.traces)
    expression, _, shown = blocks[2].splitlines()[-1].partition("  # ")
    assert str(eval(expression, namespace).tolist()) == shown == "[150, 200]"
