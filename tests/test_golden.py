"""Every rendered output against the checked-in golden corpus."""

from .golden_corpus import GOLDEN, MANIFEST, byte_outputs, hashed_outputs, read_manifest, sha256


def first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {number}: got {g!r}, want {w!r}"
    number = min(len(got_lines), len(want_lines)) + 1
    return f"line {number}: got {len(got_lines)} lines, want {len(want_lines)}"


def test_outputs_match_golden_corpus(tmp_path):
    failures = []
    kept = {MANIFEST.name}
    for name, text in byte_outputs():
        kept.add(name)
        path = GOLDEN / name
        got = text.encode("utf-8")
        if not path.exists():
            failures.append(f"{name}: missing from the corpus")
        elif got != (want := path.read_bytes()):
            failures.append(f"{name}: {first_difference(got, want)}")

    manifest = read_manifest()
    hashed = set()
    for name, config, text in hashed_outputs(tmp_path):
        hashed.add(name)
        if sha256(text) != manifest.get(name):
            failures.append(f"{name} (configuration {config}): sha256 differs from {MANIFEST.name}")
    failures.extend(f"{name}: in {MANIFEST.name} but not produced" for name in manifest.keys() - hashed)
    failures.extend(
        f"{path.name}: in the corpus but not produced"
        for path in GOLDEN.iterdir()
        if path.name not in kept
    )
    assert not failures, "\n".join(failures)
