"""Run one crseifert command in this interpreter with the layer tracer
installed, then dump its spans as JSON.

    python -X importtime perfbench/cli_runner.py SPANS.json ARG...
"""

import sys

import pkg

pkg.load()

import tracer  # noqa: E402  (needs the package on sys.path)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from crseifert import cli
    trace = tracer.Tracer()
    trace.install()
    try:
        return cli.main(argv)
    finally:
        trace.uninstall()
        trace.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
