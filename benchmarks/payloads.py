"""Write and compare the output payloads of every committed config.

Run:  python benchmarks/payloads.py run DIR
      python benchmarks/payloads.py diff A B

``run`` runs each config in ``configs/`` at refine 0 into ``DIR/refine0``,
and the detector kinds (``detector-compare``, ``two-point``) again at
refine 1 and 2 into ``DIR/refine1`` and ``DIR/refine2``, in process, from
the ``src/`` of the checkout that holds this script.

``diff`` compares two such directories file by file, after dropping the
CSV ``# timestamp:`` line and the JSON ``timestamp`` key, the only parts
of a payload that may change between runs.  It names each file that
differs or is missing on one side and exits 1, or exits 0 when none does.
Running ``run`` twice on one tree and diffing the two checks that every
output is deterministic; running it in two checkouts checks that a
change leaves every output as it was.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFINED = ("detector-compare", "two-point")  # config stems also run at refine 1 and 2


def run(out: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from cqi_sim import cli

    for cfg in sorted((ROOT / "configs").glob("*.json")):
        for refine in (0, 1, 2) if cfg.stem in REFINED else (0,):
            for path in cli.run(cfg, refine=refine, out_dir=out / f"refine{refine}"):
                print(path)


def _payload(path: Path):
    """The file's content without its timestamp."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        data = json.loads(text)
        data.pop("timestamp", None)
        return data
    return [line for line in text.splitlines() if not line.startswith("# timestamp:")]


def diff(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between a and b, or exist in one only."""
    names = {p.relative_to(d).as_posix() for d in (a, b) for p in d.rglob("*") if p.is_file()}
    return [
        n for n in sorted(names)
        if not ((a / n).is_file() and (b / n).is_file() and _payload(a / n) == _payload(b / n))
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="write every payload into DIR").add_argument("dir", type=Path)
    p_diff = sub.add_parser("diff", help="name the payloads that differ between A and B")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "run":
        run(args.dir)
        return 0
    for name in (differ := diff(args.a, args.b)):
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
