"""The host-speed probe answers from a child process that exits cleanly."""

from run import HostSpeed


def test_host_probe_answers_and_exits():
    host = HostSpeed()
    try:
        assert host.probe() > 0
        assert host.probe() > 0
    finally:
        host.close()
    assert host._process.returncode == 0
    assert len(host.samples) == 2
