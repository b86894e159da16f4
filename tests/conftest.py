"""Command-line options of the test suite."""


def pytest_addoption(parser):
    parser.addoption(
        "--bless-acceptance",
        action="store_true",
        help="rewrite tests/golden/acceptance.json from this run's printed values",
    )
