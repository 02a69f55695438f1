"""Run one ``repro`` CLI command for the benchmark: seeded, optionally traced.

    python perfbench/child.py [--offset N] [--trace-out FILE --command-id ID] \\
        -- campaign run e3-matrix --store DIR

``--offset N`` adds *N* to the machine seed of every cell of every built-in
campaign before the command runs.  The program sees only the generated
specs, through its public ``BUILTIN_CAMPAIGNS`` mapping; offset 0 leaves
the shipped campaigns untouched.  ``--trace-out`` records layer spans
(``tracer.py``) and writes them when the command returns.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def offset_campaigns(offset: int) -> None:
    """Replace every built-in campaign factory by its seed-offset twin."""
    import dataclasses

    from repro.campaign import BUILTIN_CAMPAIGNS

    def shifted(factory):
        def build():
            spec = factory()
            cells = tuple(
                dataclasses.replace(
                    cell,
                    machine=cell.machine.replace(
                        seed=(cell.machine.seed or 0) + offset
                    ),
                )
                for cell in spec.cells
            )
            return dataclasses.replace(spec, cells=cells)

        return build

    for name, factory in list(BUILTIN_CAMPAIGNS.items()):
        BUILTIN_CAMPAIGNS[name] = shifted(factory)


def main(argv) -> int:
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    opts = dict(zip(options[::2], options[1::2]))
    offset = int(opts.get("--offset", "0"))
    trace_out = opts.get("--trace-out")
    sys.path.insert(0, SRC)
    recorder = None
    if trace_out:
        from tracer import Recorder

        recorder = Recorder(opts.get("--command-id", "command"))
        recorder.install()
    try:
        if offset:
            offset_campaigns(offset)
        from repro.cli import main as cli_main

        return cli_main(command)
    finally:
        if recorder is not None:
            recorder.uninstall()
            recorder.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
