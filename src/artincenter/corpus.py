"""analyze --dir: every .graph file of a directory, one after another.

Each file's report is written beside it as ``<name>.report.json``, through a
temporary file that then replaces the report, with the mode open() would
give.  A file that fails is reported on stderr and the batch goes on.  Text
output is one line per file; --json prints a summary list at the end, so
only then are the files' entries kept.

``cli`` passes in the analysis and the JSON writer.  This module does not
import ``cli``: under ``python -m artincenter.cli`` that module runs as
``__main__``, so importing it would load and compile it a second time.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path


def analyze_dir(directory: str, as_json: bool, analyze_one, dumps, envelope) -> int:
    """Analyze every .graph file in the directory and write its report.

    ``analyze_one(path)`` gives (input info, result, exit code).  The batch
    exits 1 when the directory has no .graph file or any file failed, and
    otherwise with the highest exit code of its files.
    """
    paths = sorted(str(p) for p in Path(directory).iterdir() if p.suffix == ".graph")
    if not paths:
        print(f"no .graph files in {directory}", file=sys.stderr)
        return 1
    # mkstemp makes files 0600; reports get what open(path, "w") gives
    umask = os.umask(0)
    os.umask(umask)
    worst = 0
    saw_error = False
    summary = []
    for path in paths:
        try:
            info, result, code = analyze_one(path)
            out = Path(path).with_suffix(".report.json")
            text = dumps(envelope("analyze", info, result))
            fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.chmod(tmp, 0o666 & ~umask)
                os.replace(tmp, out)
            except OSError as exc:
                raise OSError(f"cannot write {out}: {exc.strerror or exc}") from None
            finally:
                if os.path.lexists(tmp):
                    os.unlink(tmp)
        except Exception as exc:  # one bad file must not stop the batch
            saw_error = True
            print(f"{path}: error: {exc}", file=sys.stderr)
            if as_json:
                summary.append({"path": path, "error": str(exc)})
            continue
        worst = max(worst, code)
        established, rank = result["established"], result["center_rank"]
        if as_json:
            summary.append({"path": path, "established": established, "center_rank": rank})
        else:
            status = "established" if established else "unknown"
            print(f"{path}: {status}, center rank {rank}")
    if as_json:
        print(dumps(summary))
    return 1 if saw_error else worst
