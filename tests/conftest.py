import io

import pytest

import ambit.machine
from ambit import Machine


def pytest_addoption(parser):
    parser.addoption(
        "--hot-entries", type=int, default=None, metavar="N",
        help="compile a lambda's body on its Nth closure entry, and an "
             "application's return points on their Nth resumption, for the "
             "whole session (1 runs compiled code wherever it can)")


def pytest_configure(config):
    entries = config.getoption("hot_entries")
    if entries is not None:
        ambit.machine._HOT_ENTRIES = entries


@pytest.fixture
def machine():
    return Machine(stdout=io.StringIO())


@pytest.fixture
def quiet_machine():
    return Machine(stdout=io.StringIO(), stack_trace=False)
