"""Paper experiment reproductions.

One module per table/figure of the evaluation section (section 5), plus
the section 3.4 overhead accounting and the Lemma 1/2 validation:

===========================  ===================================================
``repro.experiments.fig1``   TSF max clock difference, 100 & 300 nodes
``repro.experiments.fig2``   SSTSP max clock difference, 500 nodes, m = 4
``repro.experiments.table1`` m sweep: synchronization latency & error
``repro.experiments.fig3``   TSF under the channel attacker (100 nodes)
``repro.experiments.fig4``   SSTSP under the insider attacker (500 nodes)
``repro.experiments.overhead`` beacon/storage overhead (section 3.4)
``repro.experiments.lemmas`` measured vs analytic convergence bounds
===========================  ===================================================

Each module exposes functions returning structured results, plus
``configure_parser(parser)``, which installs its flags on the subparser
:mod:`repro.experiments.cli` hands it and a handler printing the same
rows/series the paper reports (plus CSV output). ``python -m repro
<name>`` or the installed ``sstsp-experiment`` (alias ``repro``) command
runs them; options follow the name, and ``--quick`` shrinks the
scenario for smoke runs.
"""
