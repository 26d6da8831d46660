import io
import sys
from pathlib import Path

import pytest

# the tests import helpers.py and the scripts' synthetic DAG generator
sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent / "scripts")]

import smx


@pytest.fixture(scope="session")
def toy_graph():
    return smx.parse_graph(smx.toy_taxonomy_path())


@pytest.fixture(scope="session")
def toy(toy_graph):
    return smx.taxonomic_reduction(toy_graph)


@pytest.fixture(scope="session")
def toy_seco(toy):
    return smx.seco_ic(toy)


@pytest.fixture()
def diamond():
    # root above X and Y, Z and W below both
    from helpers import taxonomy_from_pairs

    return taxonomy_from_pairs(
        [("X", "root"), ("Y", "root"), ("Z", "X"), ("Z", "Y"), ("W", "X"), ("W", "Y")]
    )


@pytest.fixture()
def chain_with_skip():
    # four-edge chain plus one redundant bottom-to-top shortcut
    from helpers import taxonomy_from_pairs

    return taxonomy_from_pairs(
        [("c3", "c4"), ("c2", "c3"), ("c1", "c2"), ("c0", "c1"), ("c0", "c4")]
    )


def as_stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return
    number = name.split("_")[2]
    status = "PASS" if report.passed else "FAIL"
    title = " ".join(name.split("_")[3:])
    sys.stderr.write(f"[criterion {number}] {status}: {title}\n")
