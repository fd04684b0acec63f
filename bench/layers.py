"""Per-layer metrics of a traced run, one group per workbench module.

Four kinds of figure:
- `_ms`: mean milliseconds per call of the named span, over the traced
  operations (set-up spans come from the one traced set-up);
- counts over round 0 only, which the seed alone determines;
- sizes: means per call over every operation of the run;
- gauges read at the end of the run from the program's own tables,
  without changing them.
A layer the workload does not call reports 0.
"""

from __future__ import annotations

from wl_spectrum import RELATIONS

OBS_KINDS = ("F", "R", "FT", "RT", "PF")


def _mean_ms(name):
    return ("mean_ms", name)


def _round0(name):
    return ("round0", name)


def _mean(total, calls):
    return ("mean", total, calls)


# name, unit, better, how it is computed
PER_LAYER = (
    [
        ("terms.parse_ms", "ms", "lower", _mean_ms("terms.parse")),
        ("terms.parse_calls", "count", "lower", _round0("terms.parse_calls")),
        ("terms.interned", "count", "lower", ("gauge", "interned")),
        ("semantics.lts_states", "count", "lower", _round0("semantics.lts_states")),
        ("semantics.lts_ms", "ms", "lower", _mean_ms("semantics.build_lts")),
        ("semantics.traces_ms", "ms", "lower", _mean_ms("semantics.traces")),
    ]
    + [(f"observations.{k}_ms", "ms", "lower", _mean_ms(f"observations.{k}")) for k in OBS_KINDS]
    + [
        (f"observations.{k}_size", "count", "lower", _mean(f"observations.{k}_size", f"observations.{k}_calls"))
        for k in OBS_KINDS
    ]
    + [(f"equivalences.{r}_ms", "ms", "lower", _mean_ms(f"equivalences.{r}")) for r in RELATIONS]
    + [
        ("equivalences.spectrum_vector_ms", "ms", "lower", _mean_ms("equivalences.spectrum_vector")),
        ("equivalences.pair_memo_entries", "count", "lower", ("gauge", "pair_memo")),
        ("axioms.build_system_ms", "ms", "lower", _mean_ms("axioms.build_system")),
        ("axioms.check_sound_ms", "ms", "lower", _mean_ms("axioms.check_sound")),
        ("axioms.instances_checked", "count", "lower", _round0("axioms.instances_checked")),
        ("eliminate.eliminate_ms", "ms", "lower", _mean_ms("eliminate.eliminate")),
        ("eliminate.result_tree_size", "count", "lower", _mean("eliminate.result_tree_size", "eliminate.calls")),
        ("eliminate.result_dag_nodes", "count", "lower", _mean("eliminate.result_dag_nodes", "eliminate.calls")),
        ("proofs.script_to_json_ms", "ms", "lower", _mean_ms("proofs.script_to_json")),
        ("proofs.json_kb", "KB", "lower", _mean("proofs.json_kb", "eliminate.calls")),
        ("proofs.script_from_json_ms", "ms", "lower", _mean_ms("proofs.script_from_json")),
        ("proofs.check_proof_ms", "ms", "lower", _mean_ms("proofs.check_proof")),
        ("proofs.steps", "count", "lower", _mean("proofs.steps", "eliminate.calls")),
        ("proofs.axiom_steps", "count", "lower", _mean("proofs.axiom_steps", "eliminate.calls")),
        ("derivations.fixture_scripts_ms", "ms", "lower", _mean_ms("derivations.fixture_scripts")),
        ("derivations.steps", "count", "lower", ("setup", "derivations.steps")),
        ("models.search_ms", "ms", "lower", _mean_ms("models.search_model")),
        ("models.search_nodes", "count", "lower", _round0("models.search_nodes")),
        ("models.nodes_per_s", "1/s", "higher", ("rate", "models.traced_search_nodes", "models.search_model")),
        ("models.independence_report_ms", "ms", "lower", _mean_ms("models.independence_report")),
        ("models.valuations_checked", "count", "lower", _round0("models.valuations_checked")),
        ("witness.report_ms", "ms", "lower", _mean_ms("witness.negative_evidence_report")),
        ("witness.families", "count", "higher", _round0("witness.families")),
        ("trace.untraced_ops_per_s", "op/s", "higher", ("ops", False)),
        ("trace.traced_ops_per_s", "op/s", "higher", ("ops", True)),
        ("trace.overhead_ops_per_s", "op/s", "lower", ("overhead",)),
    ]
)


def _ops_per_s(rec, traced):
    lat = rec.latencies[traced]
    return len(lat) / sum(lat) if lat else 0.0


def per_layer_metrics(tracer, env, rec) -> dict:
    totals = tracer.totals()
    round0 = tracer.since("setup", "round0")
    setup = tracer.marks.get("setup", {})
    pkg = env["pkg"]
    out = {}
    for name, unit, _better, how in PER_LAYER:
        kind = how[0]
        if kind == "mean_ms":
            n, tot = totals.get(how[1], (0, 0.0))
            value = 1000.0 * tot / n if n else 0.0
        elif kind == "round0":
            value = round0.get(how[1], 0)
        elif kind == "mean":
            calls = tracer.counters.get(how[2], 0)
            value = tracer.counters.get(how[1], 0) / calls if calls else 0.0
        elif kind == "setup":
            value = setup.get(how[1], 0)
        elif kind == "rate":
            _n, tot = totals.get(how[2], (0, 0.0))
            value = tracer.counters.get(how[1], 0) / tot if tot else 0.0
        elif kind == "gauge":
            if how[1] == "interned":
                value = len(pkg.terms._pool)
            else:
                value = sum(len(c) for c in pkg.equivalences._PAIR_CACHES)
        elif kind == "ops":
            value = _ops_per_s(rec, how[1])
        else:
            value = _ops_per_s(rec, False) - _ops_per_s(rec, True)
        out[name] = {"value": value, "unit": unit}
    return out
