"""Shared fixtures: a few small lattices and the claims used throughout."""

import pytest

from rip import (
    InfoStructure,
    Option,
    StaticOptionBook,
    build_lattice,
    info_from_payoff,
    parse_payoff,
    rat,
)

TRINOMIAL = ["1/2", 1, 2]

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def criterion():
    """Record one PASS/FAIL summary line, then enforce it."""

    def record(number, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        tail = f": {detail}" if detail else ""
        ACCEPTANCE_LINES.append(f"{status}  criterion {number:2d}  {name}{tail}")
        assert ok, f"criterion {number} ({name}) failed{tail}"

    return record


@pytest.fixture(scope="session")
def tri1():
    return build_lattice(1, 1, TRINOMIAL)


@pytest.fixture(scope="session")
def tri2():
    return build_lattice(1, 2, TRINOMIAL)


@pytest.fixture(scope="session")
def tri3():
    return build_lattice(1, 3, TRINOMIAL)


@pytest.fixture(scope="session")
def call_at_1():
    return parse_payoff("pos(S[1,T] - 1)")


@pytest.fixture(scope="session")
def call_at_2():
    return parse_payoff("pos(S[1,T] - 2)")


@pytest.fixture(scope="session")
def put_at_1():
    return parse_payoff("pos(1 - S[1,T])")


@pytest.fixture(scope="session")
def digital_at_2():
    return parse_payoff("ind(S[1,T] == 2)")


@pytest.fixture(scope="session")
def flat_digital_book():
    """One quoted static: pays 1 when the step ends flat, quoted at 1/5."""
    option = Option(parse_payoff("ind(S[1,1] == 1)"), rat(1, 5), "flat-digital")
    return StaticOptionBook.of(option)


@pytest.fixture(scope="session")
def hits_one():
    return info_from_payoff(parse_payoff("ind(S[1,1] == 1)"), "hits-one")


@pytest.fixture(scope="session")
def no_info():
    return InfoStructure.none()
