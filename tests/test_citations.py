"""Every measurement the package's code cites resolves: a `(BENCH_x.json, row N)`
citation names a file at the repository root whose "rows" hold N, and a
`(BENCH_x.json, "key")` citation names one whose top level holds key."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r'(BENCH_\w+\.json),\s+(?:row\s+(\d+)|"([^"]+)")')


def test_every_citation_resolves():
    found = 0
    for path in sorted((ROOT / "src" / "padic_cf").glob("*.py")):
        text = path.read_text()
        citations = CITATION.findall(text)
        # a BENCH file named with no row or key is a citation this test cannot follow
        assert len(citations) == text.count("BENCH_"), path.name
        for name, row, key in citations:
            bench = ROOT / name
            assert bench.is_file(), (path.name, name)
            data = json.loads(bench.read_text())
            if row:
                assert row in data.get("rows", {}), (path.name, name, row)
            else:
                assert key in data, (path.name, name, key)
        found += len(citations)
    assert found >= 12
