"""tools/retrieve_cpu.py's parsing and arithmetic; no process is started."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "retrieve_cpu.py"
_spec = importlib.util.spec_from_file_location("retrieve_cpu", _PATH)
retrieve_cpu = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(retrieve_cpu)

# /proc/<pid>/stat of a process whose name holds spaces and parentheses:
# utime 250 and stime 50 ticks are its 14th and 15th fields.
_STAT = "4242 (python3 (a) b) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 3 0 77"


def test_stat_fields_count_from_the_end_of_the_name():
    assert retrieve_cpu.stat_cpu_s(_STAT, 100) == 3.0
    assert retrieve_cpu.stat_cpu_s(_STAT, 1000) == 0.3


def test_cpu_per_retrieval_is_in_microseconds():
    assert retrieve_cpu.per_retrieval_us(1.0, 1.5, 5000) == 100.0
    assert retrieve_cpu.per_retrieval_us(2.0, 2.0, 10) == 0.0


def test_the_report_sums_the_three_processes():
    found = retrieve_cpu.report(1000, (1.0, 1.1), [(0.5, 0.55), (0.25, 0.29)])
    assert found == {
        "params": [2, 2, 257],
        "retrievals": 1000,
        "client_us": 100.0,
        "server_us": [50.0, 40.0],
        "total_us": 190.0,
    }


def test_arguments_other_than_one_count_are_a_usage_error(capsys):
    for argv in (["0"], ["x"], ["10", "20"], ["-5"]):
        assert retrieve_cpu.main(argv) == 2
    assert capsys.readouterr().err.count("usage: retrieve_cpu.py [R]") == 4
