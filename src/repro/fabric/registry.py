"""Worker discovery: registry files and address-list parsing.

The fabric's discovery mechanism is a plain text file, one
``host:port`` per line.  Workers *self-register*: a
``repro-fabric-worker --registry workers.txt`` appends its bound
address once it is listening (via the same locked single-write append
the checkpoint journal uses, so concurrently starting workers cannot
interleave), and the coordinator reads the file at launch.  Comments
(``#``) and blank lines are ignored, duplicates collapse in first-seen
order — hand-maintained fleet files and self-registered ones look the
same to the coordinator.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from ..runtime.checkpoint import locked_append
from .transport import parse_address

__all__ = ["WorkerRegistry", "parse_workers"]


class WorkerRegistry:
    """One fleet's registry file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def register(self, host: str, port: int) -> str:
        """Append one worker address; returns the registered line."""
        address = f"{host}:{int(port)}"
        parse_address(address)  # validate before persisting
        locked_append(self.path, address)
        return address

    def load(self) -> List[str]:
        """All registered addresses, deduplicated, first-seen order."""
        if not self.path.exists():
            return []
        seen: List[str] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if not line or line in seen:
                continue
            parse_address(line)  # a malformed registry should fail loudly
            seen.append(line)
        return seen


def parse_workers(spec: Union[str, Path, Sequence[str]]) -> List[str]:
    """Normalise a fleet spec into a list of ``host:port`` addresses.

    Accepts a registry file path, a comma-separated address string, or
    an iterable of addresses — whatever the CLI or an embedding caller
    has on hand.  Every form is validated and deduplicated in
    first-seen order, as a registry file is.
    """
    if isinstance(spec, Path):
        return WorkerRegistry(spec).load()
    if isinstance(spec, str):
        if not ("," in spec or (":" in spec and not Path(spec).exists())):
            return WorkerRegistry(spec).load()
        spec = spec.split(",")
    addresses = [str(a).strip() for a in spec if str(a).strip()]
    for a in addresses:
        parse_address(a)
    return list(dict.fromkeys(addresses))
