import json

import pytest


@pytest.fixture
def config_file(tmp_path):
    """Write a configuration JSON file and return its path as a string."""

    def _write(rows, ambient_rank=None, name="config.json"):
        rank = ambient_rank if ambient_rank is not None else len(rows[0])
        payload = {
            "ambient_rank": rank,
            "points": [[str(x) for x in row] for row in rows],
        }
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


@pytest.fixture
def spy(monkeypatch):
    """Record the calls of a function that still runs: ``spy(owner, name, *also)``.

    Sets ``name`` on ``owner``, and on each of ``also``, to one wrapper that
    appends the call's positional arguments (``self`` first, for a method
    set on a class) to a list and calls the original. Returns that list.
    """

    def install(owner, name, *also):
        calls = []
        wrapped = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return wrapped(*args, **kwargs)

        for target in (owner, *also):
            monkeypatch.setattr(target, name, recorded)
        return calls

    return install
