// Figure 5 — Normalized fine-grained TMR overhead vs accuracy goal for
// VGG19 (int16) at a fixed BER, comparing:
//   ST-Conv          plan + execute on direct convolution,
//   WG-Conv-W/O-AFT  the ST plan applied to Winograd execution,
//   WG-Conv-W/AFT    Winograd-aware planning on Winograd execution.
// Overheads are normalized to full TMR of ST-Conv. Headline: W/AFT cuts
// overhead vs ST-Conv and vs W/O-AFT (paper: 61.21% and 27.49% on average).
#include "bench_util.h"
#include "core/protect/tmr_planner.h"

using namespace winofault;
using namespace winofault::bench;

int main(int argc, char** argv) {
  const double ber = ber_knob(argv[0]);  // before figure_ctx forks
  const FigureCtx ctx = figure_ctx(5, argc, argv);
  ModelUnderTest m = make_model("vgg19", DType::kInt16, ctx.env);
  const double clean = m.entry->clean_accuracy;
  // Both rankings and every plan's checks replay one golden per image.
  const CampaignRunner runner(m.net, m.data);

  // Accuracy goals spanning the paper's 45%..70% band (relative to the
  // 72.6% clean accuracy).
  std::vector<double> goals;
  const int goal_count = ctx.env.full ? 6 : 5;
  for (int i = 0; i < goal_count; ++i) {
    goals.push_back(0.45 + (clean - 0.03 - 0.45) * i / (goal_count - 1));
  }

  // Shared vulnerability rankings (measured once per analysis engine; each
  // analysis is one campaign across the N+1 layer configurations).
  CampaignPoint st_point;
  st_point.fault.ber = ber;
  st_point.seed = ctx.seed(0);
  CampaignPoint wg_point = st_point;
  wg_point.policy = ConvPolicy::kWinograd2;
  // This analysis steers the planner (vulnerability_order below), so a
  // budget-truncated PARTIAL ranking would corrupt every plan — the same
  // reason plan_tmr zeroes the budget for its own accuracy checks. Cells
  // still journal, so a killed run resumes regardless.
  StoreOptions ranking_store = ctx.store();
  ranking_store.cell_budget = 0;
  const LayerwiseResult st_analysis =
      layer_vulnerability(runner, st_point, ranking_store);
  const auto st_order = vulnerability_order(st_analysis);
  const LayerwiseResult wg_analysis =
      layer_vulnerability(runner, wg_point, ranking_store);
  const auto wg_order = vulnerability_order(wg_analysis);
  note_partial(st_analysis.cells_deferred + wg_analysis.cells_deferred);

  const double st_full = full_tmr_ops(m.net, ConvPolicy::kDirect);
  Table table({"accuracy_goal", "st_overhead", "wo_aft_overhead",
               "w_aft_overhead", "w_aft_accuracy_on_wg"});
  double sum_vs_st = 0, sum_vs_wo = 0;
  int counted = 0;
  // Goals ascend, so each plan warm-starts from the previous one.
  std::unordered_map<int, ProtectionSet> st_warm, wg_warm;
  for (const double goal : goals) {
    TmrPlanOptions st_opts;
    st_opts.check.fault.ber = ber;
    st_opts.check.seed = ctx.seed(1);
    st_opts.accuracy_goal = goal;
    st_opts.store = ctx.store();
    st_opts.layer_order = &st_order;
    st_opts.step_fraction = ctx.env.full ? 0.05 : 0.15;
    st_opts.initial_protection = &st_warm;
    const TmrPlan st_plan = plan_tmr(runner, st_opts);
    st_warm = st_plan.protection;

    TmrPlanOptions wg_opts = st_opts;
    wg_opts.check.policy = ConvPolicy::kWinograd2;
    wg_opts.layer_order = &wg_order;
    wg_opts.initial_protection = &wg_warm;
    const TmrPlan wg_plan = plan_tmr(runner, wg_opts);
    wg_warm = wg_plan.protection;

    const double st_ovh =
        plan_overhead_ops(m.net, st_plan, ConvPolicy::kDirect) / st_full;
    // W/O-AFT: the ST protection choices executed on the Winograd engine.
    const double wo_ovh =
        plan_overhead_ops(m.net, st_plan, ConvPolicy::kWinograd2) / st_full;
    const double w_ovh =
        plan_overhead_ops(m.net, wg_plan, ConvPolicy::kWinograd2) / st_full;
    const double w_acc = wg_plan.achieved_accuracy;

    table.add_row({Table::fmt(goal * 100, 1), Table::fmt(st_ovh, 4),
                   Table::fmt(wo_ovh, 4), Table::fmt(w_ovh, 4),
                   Table::fmt(w_acc * 100, 2)});
    if (st_ovh > 0 && wo_ovh > 0) {
      sum_vs_st += 1.0 - w_ovh / st_ovh;
      sum_vs_wo += 1.0 - w_ovh / wo_ovh;
      ++counted;
    }
  }
  emit(table,
       "Fig 5: normalized TMR overhead vs accuracy goal (VGG19 int16, BER " +
           Table::fmt_sci(ber) + ")",
       "fig5_tmr_overhead");
  if (counted > 0) {
    std::printf(
        "avg overhead reduction of WG-Conv-W/AFT: %.2f%% vs ST-Conv, "
        "%.2f%% vs WG-Conv-W/O-AFT (paper: 61.21%% and 27.49%%)\n",
        100.0 * sum_vs_st / counted, 100.0 * sum_vs_wo / counted);
  }
  return finish_figure();
}
