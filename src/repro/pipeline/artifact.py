"""The versioned, serializable host artifact and the on-disk cache.

The compiler's one artifact is the finished host program of a clean
compile: a :class:`StageArtifact` of stage ``host``, named by the
compile's host fingerprint
(:func:`~repro.pipeline.compile_cache_key`) and integrity-checked by a
sha256 over the serialized payload.  The :class:`ArtifactCache`
persists artifacts under the root it is given (``$REPRO_ARTIFACT_DIR``
/ ``--artifact-dir``) with atomic writes and fingerprint-verified
loads, so a second process — or a restarted server — loads the host
program instead of recompiling from source.  The jit files its
generated source in the same cache, as stage ``pycode``.

File format (``repro.stage_artifact/v2``): one JSON header line —
schema, stage, fingerprint, entry, meta and the payload's sha256 —
then the pickled payload.  A load only succeeds when the header's
schema, stage and fingerprint are the ones asked for and the checksum
agrees, all decided before anything is unpickled; anything else
(truncation, corruption, a stale format, a hash collision in the file
name) counts as a miss, and the offending file is evicted so it cannot
fail twice.  Whoever can write the cache directory could plant a file
whose checksum matches, so the root must be this user's alone
(:meth:`ArtifactCache.trusted`).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs import get_tracer

__all__ = ["ARTIFACT_SCHEMA", "StageArtifact", "ArtifactCache", "default_artifact_cache"]

ARTIFACT_SCHEMA = "repro.stage_artifact/v2"

#: Environment variable that opts a whole process into on-disk
#: artifact caching (the CLI's ``--artifact-dir`` equivalent).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"


@dataclass
class StageArtifact:
    """One serialized artifact."""

    #: ``host`` (the compiler's) or ``pycode`` (the jit's).
    stage: str
    #: Identity: the fingerprint this artifact answers for.
    fingerprint: str
    entry: str
    #: The payload, stage-dependent: ``host`` → ``{"core": A.Prog,
    #: "host": HostProgram, "fusion_stats": ...}``.
    payload: Dict[str, Any]
    #: Provenance breadcrumbs (options slice, pass list); informational
    #: only — identity lives entirely in ``fingerprint``.
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Serialize: a JSON header line carrying the payload's sha256,
        then the pickled payload."""
        payload_bytes = pickle.dumps(self.payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = {"schema": ARTIFACT_SCHEMA}
        header.update((k, getattr(self, k)) for k in _HEADER)
        header["payload_sha256"] = sha256(payload_bytes).hexdigest()
        return json.dumps(header).encode() + b"\n" + payload_bytes

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        expect_fingerprint: Optional[str] = None,
        expect_stage: Optional[str] = None,
    ) -> "StageArtifact":
        """Parse and verify; raises ``ValueError`` on any mismatch
        (schema; stage and fingerprint when given; checksum), all
        decided on the header before the payload is unpickled."""
        end = data.find(b"\n")
        try:
            header = json.loads(data[:end]) if end >= 0 else "no header"
        except ValueError as e:
            raise ValueError(f"undecodable artifact: {e}") from e
        if not isinstance(header, dict):
            raise ValueError(f"undecodable artifact: {header!r}")
        if header.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"not a {ARTIFACT_SCHEMA} artifact "
                f"(schema={header.get('schema')!r})"
            )
        for key, want in (
            ("stage", expect_stage), ("fingerprint", expect_fingerprint)
        ):
            if want is not None and header.get(key) != want:
                raise ValueError(
                    f"artifact {key} mismatch: stored "
                    f"{str(header.get(key))[:12]!r}, wanted {want[:12]!r}"
                )
        payload_bytes = memoryview(data)[end + 1:]
        if sha256(payload_bytes).hexdigest() != header.get("payload_sha256"):
            raise ValueError("artifact payload checksum mismatch")
        try:
            payload = pickle.loads(payload_bytes)
        except Exception as e:
            raise ValueError(f"undecodable artifact payload: {e}") from e
        return cls(payload=payload, **{k: header.get(k) for k in _HEADER})


#: The fields of a :class:`StageArtifact` its header line carries.
_HEADER = ("stage", "fingerprint", "entry", "meta")


class ArtifactStats:
    """Lifetime accounting, surfaced through ``Server.health()`` and
    the driver's ``pipeline.artifacts`` metrics."""

    __slots__ = ("hits", "misses", "stores", "evictions", "errors", "refusals")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt / mismatching files removed on load.
        self.evictions = 0
        #: I/O failures (stores are best-effort: a full or read-only
        #: disk degrades to cold compiles, never to a failed compile).
        self.errors = 0
        #: Loads and stores refused (:meth:`ArtifactCache.trusted`).
        self.refusals = 0

    def snapshot(self) -> Dict[str, int]:
        return {s: getattr(self, s) for s in self.__slots__}


class ArtifactCache:
    """A content-addressed on-disk store of artifacts.

    Concurrency-safe by construction: files are named by fingerprint,
    written to a temp name and published with ``os.replace`` (atomic on
    POSIX), so concurrent processes racing on the same key at worst
    both do the work and one wins the rename.  Loads verify the full
    envelope and evict anything invalid.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.stats = ArtifactStats()
        self._lock = threading.Lock()
        self._trusted: Optional[bool] = None

    def trusted(self) -> bool:
        """Whether the root may be read and written, decided at the first
        load or store: created 0700, refused (every load a miss, every
        store skipped) if another uid owns it or group/others may write."""
        if self._trusted is None:
            try:
                self.root.mkdir(mode=0o700, parents=True, exist_ok=True)
                st = self.root.stat()
            except OSError:
                return True  # no root to trust: loads/stores fail as before
            self._trusted = st.st_uid == os.getuid() and not st.st_mode & 0o022
            if not self._trusted:
                warnings.warn(
                    f"artifact cache root {self.root} refused: another "
                    "user owns it, or group or others may write it",
                    RuntimeWarning,
                )
        return self._trusted

    def path_for(self, stage: str, fingerprint: str) -> Path:
        return self.root / f"{stage}-{fingerprint}.artifact"

    def load(self, stage: str, fingerprint: str) -> Optional[StageArtifact]:
        """The verified artifact, or None.  Corrupt, truncated or
        mismatching files are evicted so the next compile rebuilds
        them cleanly; a root that is not :meth:`trusted` is never read."""
        if not self.trusted():
            with self._lock:
                self.stats.refusals += 1
                self.stats.misses += 1
            return None
        path = self.path_for(stage, fingerprint)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, OSError):
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            artifact = StageArtifact.from_bytes(
                data, expect_fingerprint=fingerprint, expect_stage=stage
            )
        except ValueError as e:
            get_tracer().instant(
                "artifact-evict", "pipeline", path=str(path), error=str(e)
            )
            with self._lock:
                self.stats.evictions += 1
                self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        with self._lock:
            self.stats.hits += 1
        return artifact

    def store(self, artifact: StageArtifact) -> Optional[Path]:
        """Atomically persist; best-effort (returns None and counts an
        error instead of raising on I/O failure, or a refusal when the
        root is not :meth:`trusted`)."""
        if not self.trusted():
            with self._lock:
                self.stats.refusals += 1
            return None
        path = self.path_for(artifact.stage, artifact.fingerprint)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        )
        try:
            self.root.mkdir(mode=0o700, parents=True, exist_ok=True)
            tmp.write_bytes(artifact.to_bytes())
            os.replace(tmp, path)
        except OSError as e:
            get_tracer().instant(
                "artifact-store-failed", "pipeline",
                path=str(path), error=str(e),
            )
            with self._lock:
                self.stats.errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return None
        with self._lock:
            self.stats.stores += 1
        return path

    def clear(self) -> int:
        """Remove every artifact; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for p in self.root.glob("*.artifact"):
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.artifact"))


def default_artifact_cache() -> Optional[ArtifactCache]:
    """The process-wide default: an :class:`ArtifactCache` rooted at
    ``$REPRO_ARTIFACT_DIR`` when that is set, else None (disk caching
    is opt-in — library callers pass ``artifact_cache=`` explicitly,
    the CLI passes ``--artifact-dir``)."""
    root = os.environ.get(ARTIFACT_DIR_ENV)
    return ArtifactCache(root) if root else None
