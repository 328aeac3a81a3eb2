import pytest

from longhop import soldb


@pytest.fixture(scope="session")
def seeded_db():
    """The default seed set, built once per test run."""
    db = soldb.SolutionDB()
    soldb.seed_defaults(db)
    return db


@pytest.fixture(scope="session")
def db_path(tmp_path_factory, seeded_db):
    """The seed set persisted to disk, for CLI tests."""
    path = tmp_path_factory.mktemp("store") / "lh.db"
    path.write_text(soldb.dumps(seeded_db))
    return path


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    rep = outcome.get_result()
    module = getattr(item, "module", None)
    if rep.when != "call" or getattr(module, "__name__", "") != "test_acceptance":
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"{verdict}: {doc}")
