"""The README's simulated walkthroughs run as written, in order, through
``python -m simobs.cli`` in a shell."""
import os
import subprocess
import sys
from pathlib import Path

import simobs

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
