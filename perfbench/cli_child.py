"""Run `hpheat.cli` under the span recorder and write the call's spans.

Usage: python cli_child.py SPANS_FILE RUN_ID <hpheat cli arguments>

The traced CLI workload starts this instead of `python -m hpheat.cli`, so the
recorder can wrap the package in the CLI's own process.  The spans stay in
memory until the CLI returns and are written to SPANS_FILE only then.
"""

import sys
from pathlib import Path

import spans as spanlib

from hpheat import cli


def main() -> int:
    spans_file, run_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    recorder = spanlib.Recorder(run_id)
    with recorder.installed():
        code = cli.main(argv)
    spanlib.dump_spans(spans_file, recorder.spans, recorder.finish())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
