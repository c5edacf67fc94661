"""Hit ``python -m repro serve`` over a socket: the facade as a service.

Two modes:

* **Self-contained** (default): spawn a ``repro serve`` subprocess on an
  ephemeral port, talk to it, shut it down gracefully, and check it
  exited 0 -- the full lifecycle in one script::

      python examples/serve_client.py 12

* **Against a running server** (what CI does)::

      python -m repro serve --port 0 --port-file port.txt &
      python examples/serve_client.py --url "http://127.0.0.1:$(cat port.txt)"

  With ``--url`` the script talks to the given server and sends it a
  graceful shutdown at the end (pass ``--no-shutdown`` to leave it up).

Both modes demonstrate the shared-session property: the *second*
identical evaluate request is answered from the server's result cache.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def call(base: str, method: str, path: str, payload: dict | None = None):
    """One envelope round trip; returns the decoded body, raises on !ok."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            body = json.loads(response.read())
    except urllib.error.HTTPError as error:
        body = json.loads(error.read())
        raise RuntimeError(
            f"{method} {path} -> {error.code}: {body['error']['message']}"
        ) from None
    if not body.get("ok"):
        raise RuntimeError(f"{method} {path}: {body}")
    return body["result"]


def spawn_server(port_file: Path) -> subprocess.Popen:
    """Start ``repro serve`` on an ephemeral port, importable as we are."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--port-file",
            str(port_file),
        ],
        env=env,
    )


def wait_for_port(port_file: Path, process: subprocess.Popen | None) -> int:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if process is not None and process.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {process.returncode}"
            )
        text = port_file.read_text() if port_file.exists() else ""
        if text.strip():
            return int(text)
        time.sleep(0.05)
    raise RuntimeError("server never wrote its port file")


def exercise(base: str, n_loops: int) -> None:
    health = call(base, "GET", "/v1/health")
    print(f"health: {health['status']} (schema v{health['schema_version']})")

    experiments = call(base, "GET", "/v1/experiments")
    names = ", ".join(e["name"] for e in experiments[:5])
    print(f"experiments: {len(experiments)} registered ({names}, ...)")

    evaluate = {
        "loop": {"kind": "kernel", "name": "hydro_fragment"},
        "model": "swapped",
        "register_budget": 16,
    }
    first = call(base, "POST", "/v1/evaluate", evaluate)
    second = call(base, "POST", "/v1/evaluate", evaluate)
    print(
        f"evaluate: II={first['ii']}, fits={first['fits']} "
        f"(first cached={first['cached']}, repeat cached={second['cached']})"
    )
    if not second["cached"]:
        raise RuntimeError("second identical request missed the cache")

    experiment = call(
        base, "POST", "/v1/experiment",
        {"name": "table1", "params": {"loops": n_loops}},
    )
    print(f"experiment {experiment['name']!r} in {experiment['seconds']:.2f}s")

    stats = call(base, "GET", "/v1/health")
    print(
        f"server totals: {stats['requests_served']} requests, "
        f"cache hits {stats['cache']['hits']}"
    )


def main() -> None:
    argv = sys.argv[1:]
    url = None
    shutdown = True
    if "--no-shutdown" in argv:
        argv.remove("--no-shutdown")
        shutdown = False
    if "--url" in argv:
        at = argv.index("--url")
        url = argv[at + 1].rstrip("/")
        del argv[at : at + 2]
    n_loops = int(argv[0]) if argv else 12

    if url is not None:
        exercise(url, n_loops)
        if shutdown:
            call(url, "POST", "/v1/shutdown", {})
            print("sent graceful shutdown")
        return

    with tempfile.TemporaryDirectory() as tmp:
        port_file = Path(tmp) / "port"
        process = spawn_server(port_file)
        try:
            port = wait_for_port(port_file, process)
            base = f"http://127.0.0.1:{port}"
            print(f"spawned repro serve on {base}")
            exercise(base, n_loops)
            call(base, "POST", "/v1/shutdown", {})
            code = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        print("server shut down cleanly (exit 0)")


if __name__ == "__main__":
    main()
