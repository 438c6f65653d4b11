// eval: repeated offline evaluation passes (serving::EvaluateOdRecommender)
// of a fitted ODNET: read-only 128-row batches with no router and no cache.
#include <memory>
#include <string>
#include <vector>

#include "odbench/harness.h"
#include "src/serving/evaluator.h"
#include "src/tensor/compute_context.h"

namespace odbench {
namespace {

namespace serving = odnet::serving;

// Width 1: at width 2 passes ran slower on a 4-vCPU host, and a busy host
// slowed them by up to 2x against ~10% for train at width 2.
constexpr int kPoolWidth = 1;
constexpr int kMinPasses = 3;

struct EvalStack {
  World world;
  std::unique_ptr<baselines::OdnetRecommender> rec;
  std::unique_ptr<TimedScorer> scorer;
};

std::unique_ptr<EvalStack> BuildEval(uint64_t seed, Report* report) {
  auto s = std::make_unique<EvalStack>();
  s->world = MakeWorld(seed);
  s->rec = std::make_unique<baselines::OdnetRecommender>(
      "ODNET", &s->world.sim->atlas(), BenchConfig());
  const odnet::util::Status fit = s->rec->Fit(s->world.dataset);
  if (!fit.ok()) report->CheckFailed("fit: " + fit.ToString());
  s->scorer = std::make_unique<TimedScorer>(s->rec.get());
  // One warm-up pass captures the serving plan of every batch shape the
  // passes use (full 128-row batches and the two ragged tails).
  report->Attempt("warmup");
  const std::string why = CheckEvalPass(serving::EvaluateOdRecommender(
      s->scorer.get(), s->world.dataset, EvalPassOptions()));
  if (!why.empty()) report->Fail("warmup", why);
  s->scorer->TakeCalls();
  return s;
}

}  // namespace

void RunEval(const Args& args, SpanRecorder* trace_spans, Report* report) {
  odnet::tensor::ComputeContext::Get().SetNumThreads(kPoolWidth);
  Report::Info("pool_width", std::to_string(kPoolWidth));

  Samples setup_s;
  const std::unique_ptr<EvalStack> stack = RepeatSetup(
      args, &setup_s, [&] { return BuildEval(args.seed, report); });
  EvalStack& s = *stack;
  SpanRecorder& spans = *trace_spans;
  // The traced run keeps the first timed pass's rows for the probes.
  if (args.trace) s.scorer->KeepRows(1 << 20);

  // Timed passes. The traced run alternates untraced and traced passes;
  // quality is read from the first pass, a fixed point in the call order.
  odnet::metrics::OdMetrics first;
  int64_t rows[2] = {0, 0};
  double pass_ns[2] = {0, 0};
  Samples pass_ms;     // per untraced pass
  Samples score_ms;    // per Score call of the traced passes
  Samples nonscore_ms;
  double score_ns_traced = 0;
  int64_t calls_traced = 0;
  int64_t passes_traced = 0;
  const int64_t captures0 = PlanCaptures(*s.rec->model());
  const int64_t stop = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int pass = 0; pass < kMinPasses || NowNs() < stop; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    report->Attempt("pass");
    const int64_t t0 = NowNs();
    const odnet::metrics::OdMetrics m =
        serving::EvaluateOdRecommender(s.scorer.get(), s.world.dataset,
                                       EvalPassOptions());
    const int64_t t1 = NowNs();
    if (pass == 0) {
      first = m;
      if (args.trace) s.scorer->KeepRows(0);
    }
    const std::string why = CheckEvalPass(m);
    if (!why.empty()) {
      report->Fail("pass", why);
      report->CheckFailed(why);
    }
    const std::vector<ScoreCall> calls = s.scorer->TakeCalls();
    double score_ns = 0;
    int64_t pass_rows = 0;
    for (const ScoreCall& c : calls) {
      pass_rows += c.rows;
      score_ns += static_cast<double>(c.end_ns - c.start_ns);
    }
    rows[traced] += pass_rows;
    pass_ns[traced] += static_cast<double>(t1 - t0);
    if (!traced) {
      pass_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    } else {
      const int64_t span = spans.Add("eval.pass", t0, t1, -1, pass, 1);
      for (const ScoreCall& c : calls) {
        spans.Add("score", c.start_ns, c.end_ns, span, pass, 1);
        score_ms.Add(static_cast<double>(c.end_ns - c.start_ns) / 1e6);
      }
      score_ns_traced += score_ns;
      calls_traced += static_cast<int64_t>(calls.size());
      ++passes_traced;
      nonscore_ms.Add((static_cast<double>(t1 - t0) - score_ns) / 1e6);
    }
  }
  if (PlanCaptures(*s.rec->model()) != captures0) {
    report->CheckFailed("timed passes captured serving plans");
  }

  Report::Info("auc_o", std::to_string(first.auc_o));
  Report::Info("auc_d", std::to_string(first.auc_d));
  if (!args.trace) {
    report->MetricMedian("setup_s", setup_s, "s");
    report->Metric("throughput_per_s",
                   static_cast<double>(rows[0]) / (pass_ns[0] / 1e9), "1/s");
    report->MetricMedian("latency_p50_ms", pass_ms, "ms");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("hr10", first.hr10, "ratio");
    report->Metric("train_loss", s.rec->train_stats().final_epoch_loss,
                   "nats");
    return;
  }

  Report::Detail("score.ms_p50", score_ms.Median(), "ms");
  Report::Detail("eval.nonscore_ms_per_pass", nonscore_ms.Median(), "ms");
  ReportForwardSplit(ForwardSplit{score_ns_traced, rows[1], calls_traced,
                                  pass_ns[1], passes_traced},
                     report);
  ReportPlanCache(*s.rec->model(), report);

  // Probes replay the first pass's Score calls; their share of the time
  // those calls took is the probe coverage.
  const std::vector<std::vector<data::Sample>> kept = s.scorer->TakeRows();
  s.scorer->TakeScores();
  double kept_rows = 0;
  for (const auto& call : kept) kept_rows += static_cast<double>(call.size());
  LayerProbe probe(s.world, BenchConfig());
  const double score_ns_per_row =
      score_ns_traced / static_cast<double>(rows[1]);
  ReportLayerTimes(probe.Replay(kept, &spans), kept_rows * score_ns_per_row,
                   report);
  const double untraced_us_per_row =
      pass_ns[0] / 1e3 / static_cast<double>(rows[0]);
  // Time per scored row of a pass with spans recorded over without.
  report->Metric("trace.overhead_ratio",
                 (pass_ns[1] / 1e3 / static_cast<double>(rows[1])) /
                     untraced_us_per_row,
                 "ratio");
}

}  // namespace odbench
