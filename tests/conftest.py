"""Command-line options of the test suite."""


def pytest_addoption(parser):
    parser.addoption(
        "--bless",
        action="store_true",
        help="rewrite tests/golden/equivalence.json and acceptance.json from this run",
    )
