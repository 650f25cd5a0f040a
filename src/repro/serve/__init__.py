"""Always-on experiment service: HTTP/JSON campaigns over the engine.

``repro serve`` turns the batch engine into a long-lived multi-tenant
scheduler: clients POST declarative :class:`ExperimentSpec` bodies to
``/v1/campaigns`` and poll state, stream result rows as NDJSON, and
fetch rendered artifacts over plain HTTP — stdlib ``http.server`` only,
so ``numpy`` stays the project's single runtime dependency.

The tier is four small parts:

* :mod:`repro.serve.registry` — durable campaign state: one atomic JSON
  file per campaign under the serve state directory, so a restarted
  server resumes interrupted campaigns (cheaply, through the shared
  result cache) and still answers for finished ones.
* :mod:`repro.serve.collector` — the single background thread that
  multiplexes every admitted campaign onto **one**
  :class:`~repro.engine.runner.ParallelRunner`: chunks of each
  campaign's plan run round-robin, so overlapping job keys across
  campaigns simulate exactly once (the runner's memo and disk cache are
  shared), and per-tenant quotas plus a backlog bound provide
  back-pressure (HTTP 429 + Retry-After) instead of collapse.
* :mod:`repro.serve.server` — the HTTP surface itself.
* :mod:`repro.serve.client` — :class:`ServeClient`, the typed
  in-process client the ``repro submit`` / ``repro status`` /
  ``repro results`` CLI front ends are built on.

The package re-exports nothing: import each name from its module, so
loading the CLI parser (:mod:`repro.serve.cli`) loads nothing else.
"""
