import sys

from perfbench import pipeline

FAKE_CLI = """
import time

def main(argv):
    time.sleep(0.2)
    return int(argv[0])
"""


def _fake_program(tmp_path):
    pkg = tmp_path / "src" / "forecast_rl"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(FAKE_CLI)
    return pipeline.program_env(tmp_path)


def test_stage_process_splits_wall_time_into_start_up_and_work(tmp_path):
    env = _fake_program(tmp_path)
    timing = tmp_path / "stage.work_s"
    wall, rss, code = pipeline.run_process(
        [sys.executable, "-c", pipeline.STAGE_CODE, str(timing), "0"], env, tmp_path / "log"
    )
    work = float(timing.read_text())
    assert code == 0 and rss > 0
    assert 0.2 <= work < wall


def test_stage_process_passes_on_the_exit_code(tmp_path):
    env = _fake_program(tmp_path)
    _, _, code = pipeline.run_process(
        [sys.executable, "-c", pipeline.STAGE_CODE, str(tmp_path / "t"), "3"], env, tmp_path / "log"
    )
    assert code == 3


def test_summarize_gives_median_quartiles_and_count():
    s = pipeline.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert pipeline.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}
