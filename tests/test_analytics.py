import json
import statistics

import pytest

from contamkit.analytics import GapCell, ImpactCell, direction_of, impact_table, render_gaps, render_impact
from contamkit import analytics
from contamkit.injector import ContaminationCondition, ContaminationMode, Temporal
from contamkit.metrics import EvalRecord

from helpers import direction_group, load_table, table_records


def _record(pair, bleu, system="sys", testset="t"):
    return EvalRecord(system_id=system, lang_pair=pair, testset_id=testset, bleu=bleu, segment_count=1)


LATE_FULL_1 = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 1)


# -- impact_table -----------------------------------------------------------------


def test_impact_cell_from_reference_tables():
    table = load_table("bleu_wmt23.json")
    baseline = table_records(table, "8b", "late", 1, "baseline")
    contaminated = table_records(table, "8b", "late", 1, "full_prompted")
    cells = impact_table(baseline, contaminated, LATE_FULL_1).cells
    by_pair = {c.lang_pair: c for c in cells}
    en_de = by_pair["en-de"]
    assert en_de.baseline_bleu == 30.95
    assert en_de.contaminated_bleu == 34.34
    assert en_de.delta == pytest.approx(3.39, abs=1e-9)
    assert en_de.pct == pytest.approx(10.95, abs=0.01)


def test_impact_zero_resource_delta():
    table = load_table("bleu_flores_zero_resource.json")
    scores = table["scores"]["8b"]["ace-en"]
    baseline = [_record("ace-en", scores["baseline"])]
    contaminated = [_record("ace-en", scores["100"])]
    cells = impact_table(baseline, contaminated).cells
    assert cells[0].delta == pytest.approx(0.627, abs=1e-9)


def test_impact_equal_scores_give_zero_delta_and_pct():
    cells = impact_table([_record("de-en", 20.0)], [_record("de-en", 20.0)]).cells
    assert cells[0].delta == 0.0
    assert cells[0].pct == 0.0


def test_impact_zero_baseline_flags_pct_undefined():
    cells = impact_table([_record("de-en", 0.0)], [_record("de-en", 5.0)]).cells
    assert cells[0].delta == 5.0
    assert cells[0].pct is None


def test_impact_missing_keys_reported_not_dropped():
    baseline = [_record("de-en", 10.0), _record("en-cs", 12.0)]
    contaminated = [_record("de-en", 11.0), _record("en-uk", 9.0)]
    table = impact_table(baseline, contaminated)
    assert [c.lang_pair for c in table.cells] == ["de-en"]
    assert table.missing_contaminated == (("en-cs", "t"),)
    assert table.missing_baseline == (("en-uk", "t"),)


def test_impact_empty_intersection_is_error():
    with pytest.raises(ValueError, match="share no"):
        impact_table([_record("de-en", 10.0)], [_record("en-uk", 9.0)])


def test_impact_antisymmetry():
    table = load_table("bleu_wmt23.json")
    baseline = table_records(table, "1b", "late", 10, "baseline")
    contaminated = table_records(table, "1b", "late", 10, "full_prompted")
    forward = {c.lang_pair: c.delta for c in impact_table(baseline, contaminated).cells}
    backward = {c.lang_pair: c.delta for c in impact_table(contaminated, baseline).cells}
    assert forward.keys() == backward.keys()
    for pair in forward:
        assert forward[pair] == pytest.approx(-backward[pair], abs=1e-12)


def test_impact_scale_equivariance():
    base, cont = [_record("de-en", 12.5)], [_record("de-en", 20.0)]
    cell = impact_table(base, cont).cells[0]
    scaled = impact_table([_record("de-en", 12.5 * 3)], [_record("de-en", 20.0 * 3)]).cells[0]
    assert scaled.delta == pytest.approx(3 * cell.delta, abs=1e-12)
    assert scaled.pct == pytest.approx(cell.pct, abs=1e-12)


# -- direction grouping ---------------------------------------------------------------


def test_direction_of():
    assert direction_of("en-de") == "en_to_x"
    assert direction_of("de-en") == "x_to_en"
    assert direction_of("cs-uk") == "x_to_y"
    with pytest.raises(ValueError):
        direction_of("ende")


def test_direction_group_means():
    cells = impact_table(
        [_record("en-de", 10.0), _record("de-en", 25.0)],
        [_record("en-de", 11.0), _record("de-en", 26.0)],
    ).cells
    groups = direction_group(cells)
    assert groups["en_to_x"] == pytest.approx(10.0)
    assert groups["x_to_en"] == pytest.approx(4.0)
    assert "x_to_y" not in groups


def test_direction_group_skips_a_cell_with_a_zero_baseline():
    cells = impact_table(
        [_record("en-de", 0.0), _record("en-cs", 10.0)],
        [_record("en-de", 5.0), _record("en-cs", 12.0)],
    ).cells
    assert direction_group(cells) == {"en_to_x": pytest.approx(20.0)}


def test_direction_fixture_en_to_x_exceeds_x_to_en_for_late_full():
    table = load_table("bleu_wmt23.json")
    headline = set(table["headline_pairs"])
    for copies in (1, 10, 100):
        baseline = [r for r in table_records(table, "8b", "late", copies, "baseline") if r.lang_pair in headline]
        contaminated = [
            r for r in table_records(table, "8b", "late", copies, "full_prompted") if r.lang_pair in headline
        ]
        groups = direction_group(impact_table(baseline, contaminated).cells)
        assert groups["en_to_x"] > groups["x_to_en"], copies


def test_mean_delta_ordering_full_above_partial_for_every_copy_count():
    table = load_table("bleu_wmt23.json")
    for model in ("1b", "8b"):
        for copies in (1, 10, 100):
            baseline = table_records(table, model, "late", copies, "baseline")
            means = {}
            for variant in ("full_prompted", "source_only", "target_only"):
                cells = impact_table(baseline, table_records(table, model, "late", copies, variant)).cells
                means[variant] = statistics.fmean(c.delta for c in cells)
            assert means["full_prompted"] > means["source_only"], (model, copies)
            assert means["full_prompted"] > means["target_only"], (model, copies)


def test_contamination_inflates_bleu_about_2_5_times_more_at_8b_than_at_1b():
    """The paper's headline: the mean late full-prompted delta of the 8B model
    over that of the 1B model is 1.9, 2.4 and 2.8 at 1, 10 and 100 copies."""
    table = load_table("bleu_wmt23.json")

    def mean_delta(model, copies):
        cells = impact_table(
            table_records(table, model, "late", copies, "baseline"),
            table_records(table, model, "late", copies, "full_prompted"),
        ).cells
        return statistics.fmean(c.delta for c in cells)

    ratios = [mean_delta("8b", copies) / mean_delta("1b", copies) for copies in (1, 10, 100)]
    assert [round(r, 1) for r in ratios] == [1.9, 2.4, 2.8]
    assert ratios == sorted(ratios)


# -- testset gaps -----------------------------------------------------------------------


def _impact(pair, base, cont, condition=LATE_FULL_1, testset="t"):
    return ImpactCell(condition, pair, testset, base, cont)


def test_gap_simple_cases():
    gaps = analytics.testset_gap([_impact("en-de", 10.0, 20.0)], [_impact("en-de", 10.0, 12.0, testset="clean")])
    assert gaps == [
        GapCell(
            condition=LATE_FULL_1,
            lang_pair="en-de",
            delta_contaminated_set=10.0,
            delta_clean_set=2.0,
        )
    ]
    assert gaps[0].gap == 8.0
    flat = analytics.testset_gap([_impact("en-de", 10.0, 12.0)], [_impact("en-de", 9.0, 11.0, testset="clean")])
    assert flat[0].gap == 0.0


def test_gap_fixture_late_100_en_de():
    w23 = load_table("bleu_wmt23.json")
    w24 = load_table("bleu_wmt24.json")
    condition = ContaminationCondition(ContaminationMode.FULL_PROMPTED, Temporal.LATE, 100)
    contaminated_cells = impact_table(
        table_records(w23, "8b", "late", 100, "baseline"),
        table_records(w23, "8b", "late", 100, "full_prompted"),
        condition,
    ).cells
    clean_cells = impact_table(
        table_records(w24, "8b", "late", 100, "baseline"),
        table_records(w24, "8b", "late", 100, "full_prompted"),
        condition,
    ).cells
    gaps = {g.lang_pair: g for g in analytics.testset_gap(contaminated_cells, clean_cells)}
    en_de = gaps["en-de"]
    assert en_de.delta_contaminated_set == pytest.approx(16.60, abs=1e-9)
    assert en_de.delta_clean_set == pytest.approx(2.13, abs=1e-9)
    assert en_de.gap == pytest.approx(14.47, abs=1e-9)


def test_duplicate_keys_are_named_with_their_side():
    cell = _impact("en-de", 1.0, 2.0, condition=None)
    other = _impact("en-de", 1.0, 2.0, condition=None, testset="flores")
    with pytest.raises(ValueError) as err:
        analytics.testset_gap([cell, other], [cell])
    assert str(err.value) == (
        "contaminated-set cells hold en-de under test sets 't' and 'flores'; a gap takes one test set per pair"
    )
    with pytest.raises(ValueError) as err:
        analytics.testset_gap([cell], [other, cell])
    assert str(err.value) == (
        "clean-set cells hold en-de under test sets 'flores' and 't'; a gap takes one test set per pair"
    )


def test_gap_empty_intersection_is_error():
    with pytest.raises(ValueError, match="share no"):
        analytics.testset_gap([_impact("en-de", 1.0, 2.0)], [_impact("en-uk", 1.0, 2.0)])


# -- rendering ------------------------------------------------------------------------------


def test_render_impact_text_blocks():
    table = load_table("bleu_wmt23.json")
    cells = impact_table(
        table_records(table, "8b", "late", 1, "baseline"),
        table_records(table, "8b", "late", 1, "full_prompted"),
        LATE_FULL_1,
    ).cells
    text = render_impact(cells, "text")
    lines = text.splitlines()
    assert "En->X" in lines[0]
    assert any(line.startswith("X->En") for line in lines)
    assert any(line.startswith("X->Y") for line in lines)
    assert any("en-de" in line and "30.95" in line and "34.34" in line for line in lines)


def test_render_impact_json_round_trips():
    cells = impact_table([_record("en-de", 10.0)], [_record("en-de", 12.0)], LATE_FULL_1).cells
    payload = json.loads(render_impact(cells, "json"))
    assert payload[0]["delta"] == pytest.approx(2.0)
    assert payload[0]["condition"] == {"mode": "full_prompted", "temporal": "late", "copies": 1}


def test_render_gaps_text():
    gaps = analytics.testset_gap([_impact("en-de", 10.0, 20.0)], [_impact("en-de", 10.0, 12.0, testset="c")])
    text = render_gaps(gaps)
    assert "en-de" in text and "8.00" in text


def test_render_gaps_json_leaves_the_condition_out():
    gaps = analytics.testset_gap([_impact("en-de", 10.0, 20.0)], [_impact("en-de", 10.0, 12.0, testset="c")])
    assert json.loads(render_gaps(gaps, "json")) == [
        {"lang_pair": "en-de", "delta_contaminated_set": 10.0, "delta_clean_set": 2.0, "gap": 8.0}
    ]
