"""``repro-serve``: argument wiring and the serve/shutdown lifecycle."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.metrics import disable_telemetry
from repro.service import cli


def test_parser_defaults():
    args = cli.build_parser().parse_args([])
    assert args.host == "127.0.0.1"
    assert args.port == 8035
    assert args.cache_size == 4096
    assert args.batch_size == 64
    assert args.batch_delay == 0.0
    assert args.rate_limit is None
    assert args.burst == 256
    assert args.max_queue_depth == 1024
    assert args.max_sweep_cells == 512
    assert args.telemetry is None


def test_parser_accepts_all_knobs():
    args = cli.build_parser().parse_args([
        "--host", "0.0.0.0", "--port", "9000", "--cache-size", "0",
        "--batch-size", "8", "--batch-delay", "0.005",
        "--rate-limit", "50", "--burst", "10", "--max-queue-depth", "32",
        "--max-sweep-cells", "64", "--telemetry", "out",
    ])
    assert args.port == 9000
    assert args.cache_size == 0
    assert args.rate_limit == 50.0
    assert args.telemetry == "out"


def test_serve_binds_answers_and_shuts_down(capsys):
    """Drive ``_serve`` on port 0, issue one query, then cancel it."""
    args = cli.build_parser().parse_args([
        "--port", "0", "--rate-limit", "100", "--max-sweep-cells", "16",
    ])

    async def main():
        task = asyncio.ensure_future(cli._serve(args))
        # wait for the listening banner (the bound port is printed)
        while True:
            await asyncio.sleep(0.01)
            out = capsys.readouterr().out
            if "listening" in out:
                port = int(out.rsplit(":", 1)[1])
                break
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = json.dumps({"scheme": "full", "N": 8, "B": 4}).encode()
        writer.write(
            b"POST /query HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        head = await reader.readuntil(b"\r\n\r\n")
        length = int([
            line for line in head.decode().split("\r\n")
            if line.lower().startswith("content-length")
        ][0].split(":")[1])
        envelope = json.loads(await reader.readexactly(length))
        writer.close()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        return envelope

    envelope = asyncio.run(main())
    assert envelope["ok"] is True
    assert envelope["result"]["bandwidth"] > 0.0


def test_main_writes_telemetry_artifacts_on_shutdown(tmp_path, monkeypatch):
    """``main`` with --telemetry lands the manifest trio after serving."""

    async def fake_serve(args):
        raise KeyboardInterrupt  # immediate Ctrl-C

    monkeypatch.setattr(cli, "_serve", fake_serve)
    try:
        code = cli.main(["--telemetry", str(tmp_path)])
    finally:
        disable_telemetry()  # main leaves the process registry live
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "service" in manifest
    assert (tmp_path / "events.jsonl").exists()
    assert (tmp_path / "metrics.prom").exists()


def test_main_without_telemetry_writes_nothing(tmp_path, monkeypatch):
    async def fake_serve(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_serve", fake_serve)
    assert cli.main([]) == 0
    assert list(tmp_path.iterdir()) == []
