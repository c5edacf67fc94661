"""The Section 5.4 loop's strategies, its dict reference and content keys.

* :mod:`repro.pipeline.fingerprint` -- content hashes of graphs, loops and
  machines (engine job keys, the reference's memo);
* :mod:`repro.pipeline.policies` -- the victim-policy, II-escalation and
  pressure-strategy registries that back the CLI, sweep and engine knobs;
* :mod:`repro.pipeline.pipelines` -- :func:`run_evaluation` and
  :func:`run_pressure`, the paper's loop written straight over the dict
  modules: the reference the production chain is tested against.

Importing this package loads none of them, so production code that needs
only the registries never loads the reference.
"""
