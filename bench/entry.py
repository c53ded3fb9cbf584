"""Child process of one benchmark run: ``bqbox`` as its console script runs it.

    python3 bench/entry.py RECORD MODE RUN_ID -- <bqbox arguments>

MODE is ``plain`` (time only the end of set-up), ``trace`` (spans around
every layer function, see tracer.py) or ``setup`` (stop at the end of
set-up, exit 0 without solving).  RECORD receives, as JSON, the import
time, the clock reading when set-up ended and, when traced, the spans.
The bqbox exit code is passed through.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import CLI_SOLVER_NAMES, Tracer, monotonic, setup_end, write_record  # noqa: E402


class SetupDone(BaseException):
    """Raised at the first solver call in ``setup`` mode; no bqbox handler catches it."""


def _mark_setup(cli, record, stop):
    """Wrap the solver entry points cli uses so the first call stamps the clock."""
    for name in CLI_SOLVER_NAMES:
        fn = getattr(cli, name)

        def first_call(*args, _fn=fn, **kwargs):
            if "setup_end" not in record:
                record["setup_end"] = monotonic()
                if stop:
                    raise SetupDone
            return _fn(*args, **kwargs)
        setattr(cli, name, first_call)


def main():
    record_path, mode, run_id, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        sys.exit("usage: entry.py RECORD plain|trace|setup RUN_ID -- <bqbox args>")
    started = monotonic()
    import bqbox.cli as cli

    record = {"import_s": monotonic() - started}
    main_fn = cli.main
    tracer = None
    if mode == "trace":
        tracer = Tracer(run_id)
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
    else:
        _mark_setup(cli, record, stop=mode == "setup")
    code = 0
    try:
        code = main_fn(argv)
    except SetupDone:
        pass
    finally:
        if tracer is not None:
            record["trace"] = tracer.dump()
            record["setup_end"] = setup_end(record["trace"])
        write_record(record_path, record)
    sys.exit(code)


if __name__ == "__main__":
    main()
