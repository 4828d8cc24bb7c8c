"""Write the synthetic fake-degree dataset of some G(m,p,n) groups.

    python3 perfbench/gen_dataset.py OUT.fd G1 G2 ...

OUT.fd holds scan.render_dataset(scan.synthetic_dataset(G) for each G):
expanded fake-degree polynomials in the table1 input format.
"""
import os
import sys

from cmscan import scan
from cmscan.fakedeg import GroupSpec


def main(argv: list[str]) -> int:
    out, specs = argv[0], argv[1:]
    text = scan.render_dataset(tuple(
        scan.synthetic_dataset(GroupSpec.parse(spec)) for spec in specs))
    partial = out + ".partial"
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(partial, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
