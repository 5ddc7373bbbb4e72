"""Compare the artefacts of two scripts/run_canonical.py output directories.

    python scripts/compare_outputs.py DIR_A DIR_B

Every artefact must be byte-identical, except result.json, whose lines must
be identical once the top-level wall_time (a timing) and scene (the path
given on the command line) entries are dropped. Prints one line per
artefact and exits 0 when all match, 1 otherwise.
"""

import argparse
import filecmp
import pathlib

ARTEFACTS = ("validation.json", "trace.csv", "labels.csv", "transport.json", "rays.csv",
             "surface.obj")
RESULT_IGNORED = ("wall_time", "scene")


def _result(path):
    ignored = tuple(f'  "{key}": ' for key in RESULT_IGNORED)
    return [line for line in path.read_bytes().split(b"\n")
            if not line.decode().startswith(ignored)]


def compare(dir_a, dir_b):
    """[(artefact, matches)] for every artefact of the two directories."""
    a, b = pathlib.Path(dir_a), pathlib.Path(dir_b)
    rows = []
    for name in ARTEFACTS:
        rows.append((name, (a / name).is_file() and (b / name).is_file()
                     and filecmp.cmp(a / name, b / name, shallow=False)))
    result_a, result_b = a / "result.json", b / "result.json"
    rows.append(("result.json", result_a.is_file() and result_b.is_file()
                 and _result(result_a) == _result(result_b)))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    args = ap.parse_args()
    rows = compare(args.dir_a, args.dir_b)
    for name, same in rows:
        print(f"{'same' if same else 'DIFFERENT'} {name}")
    return 0 if all(same for _, same in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
