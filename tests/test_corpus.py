"""Byte identity of command-line output: the seeded corpus replays to its recorded digests."""

import json

import pytest

from connsys import cli

from .corpus import build


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    monkeypatch.delenv("CONNSYS_MAX_N", raising=False)
    return tmp_path, build.write_instances(tmp_path), json.loads(build.DIGESTS.read_text())


def changed(root, invocations, recorded):
    return [build.key(argv) for argv, digest in build.replay(root, invocations) if digest != recorded[build.key(argv)]]


def test_every_invocation_replays_to_its_digest(corpus):
    root, invocations, recorded = corpus
    assert [build.key(argv) for argv in invocations] == list(recorded)
    assert len(recorded) >= 2000
    assert changed(root, invocations, recorded) == []


def test_one_changed_byte_of_one_report_is_caught(corpus, monkeypatch):
    root, invocations, recorded = corpus
    target = next(argv for argv in invocations if argv[:2] == ["width", "linear"] and "--eval-certificate" in argv)
    dumps = cli.dumps_report

    def altered(report):
        text = dumps(report)
        if report["command"] == "connsys " + build.key(target):
            text = text[:10] + chr(ord(text[10]) ^ 1) + text[11:]
        return text

    monkeypatch.setattr(cli, "dumps_report", altered)
    assert changed(root, invocations[:27], recorded) == [build.key(target)]
