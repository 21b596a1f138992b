"""The ``fixtures`` commands of the CLI."""

import sys


def cmd_fixtures_list(args) -> None:
    from . import fixtures
    for name in fixtures.fixture_names():
        print(f"{name} ({fixtures.fixture_kind(name)})")


def cmd_fixtures_dump(args) -> None:
    from . import fixtures, jsonio
    obj = fixtures.load_fixture(args.name)
    to_json = {"curve": jsonio.curve_to_json,
               "graph": jsonio.graph_to_json}[fixtures.fixture_kind(args.name)]
    sys.stdout.write(jsonio.dumps(to_json(obj)))


COMMANDS = {f.__name__: f for f in (cmd_fixtures_list, cmd_fixtures_dump)}
