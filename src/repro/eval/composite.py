"""The ``all`` composite artifact: every bundle artifact, in order.

Lives in its own module (not ``__main__``) so importing
:mod:`repro.eval` fully populates the artifact registry for library
users, not just for CLI runs.
"""

from __future__ import annotations

from ..api import artifacts
from ..api.artifacts import ArtifactRequest, ArtifactResult, artifact, combine


@artifact("all", sharded=True, composite=True, order=50,
          reads=("n", "full", "cores"),
          help="every non-composite artifact, concatenated in order")
def all_artifact(request: ArtifactRequest) -> ArtifactResult:
    results = [artifacts.get(name).run(request)
               for name in artifacts.bundle_names()]
    text, payload = combine(results)
    return ArtifactResult("all", text, payload)
