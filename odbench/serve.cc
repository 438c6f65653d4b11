// serve: ranking requests through ServingRouter -> RankingService ->
// CandidateRecall + ODNET. Phase 1 is an open loop (Poisson arrivals of
// Zipf-hot users), phase 2 a closed loop of back-to-back clients.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "odbench/harness.h"
#include "src/serving/ranking_service.h"
#include "src/serving/recall.h"
#include "src/serving/serving_router.h"
#include "src/tensor/compute_context.h"

namespace odbench {
namespace {

namespace serving = odnet::serving;

constexpr int64_t kTopK = 10;
constexpr double kOpenRate = 60.0;  // ~30% of capacity: p99 tracks service
constexpr double kZipfS = 1.2;
// Requests per hot set: one cache TTL's worth of open-loop traffic.
constexpr int64_t kHotWindow = 60;
// Share of --seconds in the open loop (600 requests at 20 s); the closed
// loop gets the rest.
constexpr double kOpenShare = 0.5;
constexpr int kPoolWidth = 1;  // wider pools oversubscribe with the router
constexpr int kRouterWorkers = 2;
constexpr int64_t kProbeCalls = 256;
constexpr int64_t kSpinNs = 2000000;  // generator spins the last 2 ms
constexpr int kWorkerLane = 2;
constexpr int kRequestLaneBase = 100;

/// Everything serve sets up; members are destroyed in reverse order, so the
/// router's threads stop before what they use goes away.
struct ServeStack {
  World world;
  std::unique_ptr<baselines::OdnetRecommender> rec;
  std::unique_ptr<TimedScorer> scorer;
  std::unique_ptr<serving::CandidateRecall> recall;
  std::unique_ptr<serving::RankingService> service;
  std::unique_ptr<serving::ServingRouter> router;
  std::vector<std::vector<data::OdPair>> recalled;  // per user
};

std::unique_ptr<ServeStack> BuildServe(uint64_t seed, Report* report) {
  auto s = std::make_unique<ServeStack>();
  s->world = MakeWorld(seed);
  const data::OdDataset& ds = s->world.dataset;
  s->rec = std::make_unique<baselines::OdnetRecommender>(
      "ODNET", &s->world.sim->atlas(), BenchConfig());
  const odnet::util::Status fit = s->rec->Fit(ds);
  if (!fit.ok()) report->CheckFailed("fit: " + fit.ToString());
  s->scorer = std::make_unique<TimedScorer>(s->rec.get());
  serving::RecallOptions recall_opts;
  recall_opts.max_origins = 8;
  recall_opts.max_destinations = 16;
  recall_opts.max_pairs = 64;
  recall_opts.popular_destinations = 8;
  s->recall = std::make_unique<serving::CandidateRecall>(
      &ds, &s->world.sim->atlas(), recall_opts);
  s->service = std::make_unique<serving::RankingService>(s->scorer.get(), &ds,
                                                         s->recall.get());
  serving::RouterOptions router_opts;
  router_opts.num_workers = kRouterWorkers;
  router_opts.cache_ttl_us = 1000000;
  s->router =
      std::make_unique<serving::ServingRouter>(s->service.get(), router_opts);

  // One warm-up request per distinct candidate count captures every serving
  // plan shape before timing starts.
  std::map<size_t, int64_t> user_by_count;
  s->recalled.resize(static_cast<size_t>(ds.num_users));
  for (int64_t u = 0; u < ds.num_users; ++u) {
    s->recalled[static_cast<size_t>(u)] = s->service->RecallFor(u);
    user_by_count.emplace(s->recalled[static_cast<size_t>(u)].size(), u);
  }
  for (const auto& [count, user] : user_by_count) {
    report->Attempt("warmup");
    serving::TopKResult r = s->router->RecommendTopK(user, kTopK);
    if (!r.ok()) report->Fail("warmup", r.status().ToString());
  }
  s->scorer->TakeCalls();
  return s;
}

/// Empty when `list` is a correct answer for a user whose recall set is
/// `recalled`; otherwise the reason it is not.
std::string CheckList(const std::vector<serving::RankedFlight>& list,
                      const std::vector<data::OdPair>& recalled) {
  const size_t want = std::min<size_t>(kTopK, recalled.size());
  if (list.size() != want) {
    return "list has " + std::to_string(list.size()) + " flights, want " +
           std::to_string(want);
  }
  for (size_t i = 0; i < list.size(); ++i) {
    const serving::RankedFlight& f = list[i];
    if (!std::isfinite(f.score)) return "non-finite score";
    if (std::find(recalled.begin(), recalled.end(), f.od) == recalled.end()) {
      return "flight not in the recall set";
    }
    for (size_t j = 0; j < i; ++j) {
      if (list[j].od == f.od) return "duplicate flight";
    }
    if (i > 0 && !serving::FlightBefore(list[i - 1], f)) {
      return "list not in FlightBefore order";
    }
  }
  return "";
}

bool Contains(const std::vector<serving::RankedFlight>& list,
              const data::OdPair& od) {
  return std::any_of(
      list.begin(), list.end(),
      [&](const serving::RankedFlight& f) { return f.od == od; });
}

/// One open-loop request.
struct Slot {
  int64_t user = 0;
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t done_ns = 0;
  bool done_inline = false;  // completed inside SubmitTopK (cache hit, refusal)
  bool ok = false;
  std::string error;
  std::vector<serving::RankedFlight> list;
};

/// Phase 1: sends `users[i]` at `start + offsets[i]` whatever the backlog,
/// and waits for every completion.
std::vector<Slot> RunOpenLoop(serving::ServingRouter* router,
                              const std::vector<int64_t>& offsets,
                              const std::vector<int64_t>& users,
                              Report* report) {
  const size_t n = offsets.size();
  std::vector<Slot> slots(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  const int64_t start = NowNs() + 5000000;
  const std::thread::id generator = std::this_thread::get_id();
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.user = users[i];
    slot.due_ns = start + offsets[i];
    // Sleep to just before the send time, then spin: a sleeping thread can
    // wake milliseconds late on a busy host.
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(slot.due_ns - kSpinNs)));
    while (NowNs() < slot.due_ns) {
    }
    slot.submit_start_ns = NowNs();
    router->SubmitTopK(slot.user, kTopK, [&, i](serving::TopKResult r) {
      Slot& s = slots[i];
      s.done_ns = NowNs();
      s.done_inline = std::this_thread::get_id() == generator;
      s.ok = r.ok();
      if (s.ok) {
        s.list = std::move(r).value();
      } else {
        s.error = r.status().ToString();
      }
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      cv.notify_one();
    });
    slot.submit_end_ns = NowNs();
  }
  std::unique_lock<std::mutex> lock(mu);
  if (!cv.wait_for(lock, std::chrono::seconds(60),
                   [&] { return completed == n; })) {
    lock.unlock();
    report->CheckFailed("open loop: requests still pending after 60 s");
    router->Shutdown();  // drains the queue, so every callback has run
  }
  return slots;
}

/// One closed-loop request's outcome.
struct Reply {
  int64_t user = 0;
  int64_t done_ns = 0;
  bool ok = false;
  std::string error;
  std::vector<serving::RankedFlight> list;
};

/// Phase 2: `clients` threads call RecommendTopK back to back until `stop`.
/// Traced segments record one span per request.
std::vector<Reply> RunClosedLoop(serving::ServingRouter* router, int clients,
                                 const std::vector<int64_t>& users,
                                 std::atomic<size_t>* next, int64_t stop,
                                 SpanRecorder* spans) {
  std::vector<std::vector<Reply>> per_client(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Reply>& out = per_client[static_cast<size_t>(c)];
      while (NowNs() < stop) {
        const size_t i = next->fetch_add(1) % users.size();
        Reply reply;
        reply.user = users[i];
        const int64_t t0 = NowNs();
        serving::TopKResult r = router->RecommendTopK(reply.user, kTopK);
        reply.done_ns = NowNs();
        spans->Add("closed.request", t0, reply.done_ns, -1,
                   static_cast<int64_t>(i), kRequestLaneBase - 10 + c);
        reply.ok = r.ok();
        if (reply.ok) {
          reply.list = std::move(r).value();
        } else {
          reply.error = r.status().ToString();
        }
        out.push_back(std::move(reply));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Reply> all;
  for (std::vector<Reply>& v : per_client) {
    for (Reply& r : v) all.push_back(std::move(r));
  }
  return all;
}

}  // namespace

void RunServe(const Args& args, SpanRecorder* trace_spans, Report* report) {
  odnet::tensor::ComputeContext::Get().SetNumThreads(kPoolWidth);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int clients = std::min(4, nproc);
  Report::Info("pool_width", std::to_string(kPoolWidth));
  Report::Info("router_workers", std::to_string(kRouterWorkers));
  Report::Info("clients", std::to_string(clients));

  Samples setup_s;
  const std::unique_ptr<ServeStack> stack = RepeatSetup(
      args, &setup_s, [&] { return BuildServe(args.seed, report); });
  ServeStack& s = *stack;
  const data::OdDataset& ds = s.world.dataset;
  SpanRecorder& spans = *trace_spans;

  // Phase 1: open loop.
  const int64_t n_open =
      std::llround(kOpenShare * args.seconds * kOpenRate);
  const std::vector<int64_t> offsets =
      PoissonArrivalsNs(args.seed, kOpenRate, n_open);
  const std::vector<int64_t> open_users =
      ZipfUsers(args.seed, ds.num_users, kZipfS, n_open, kHotWindow);
  if (args.trace) s.scorer->KeepRows(kProbeCalls);
  const int64_t captures0 = PlanCaptures(*s.rec->model());
  const int64_t phase1_start = NowNs();
  std::vector<Slot> slots = RunOpenLoop(s.router.get(), offsets, open_users,
                                        report);
  const double phase1_s = static_cast<double>(NowNs() - phase1_start) / 1e9;
  const int64_t captures1 = PlanCaptures(*s.rec->model());
  std::vector<ScoreCall> calls = s.scorer->TakeCalls();

  Samples latency_ms;
  Samples late_ms;
  int64_t hits = 0;
  int64_t served = 0;
  for (const Slot& slot : slots) {
    report->Attempt("open_loop");
    late_ms.Add(static_cast<double>(slot.submit_start_ns - slot.due_ns) / 1e6);
    if (!slot.ok) {
      report->Fail("open_loop", slot.error);
      continue;
    }
    const std::string why =
        CheckList(slot.list, s.recalled[static_cast<size_t>(slot.user)]);
    if (!why.empty()) {
      report->Fail("open_loop", why);
      report->CheckFailed("open loop: " + why);
      continue;
    }
    ++served;
    latency_ms.Add(static_cast<double>(slot.done_ns - slot.due_ns) / 1e6);
    if (Contains(slot.list,
                 ds.histories[static_cast<size_t>(slot.user)].next_booking)) {
      ++hits;
    }
  }
  Report::Info("open_loop.requests", std::to_string(slots.size()));
  Report::Info("open_loop.seconds", std::to_string(phase1_s));
  Report::DetailPercentile("generator.late_ms_p99", late_ms, 99, "ms");
  Report::Detail("generator.late_ms_max", late_ms.Max(), "ms");
  if (captures1 != captures0) {
    report->CheckFailed("open loop captured " +
                        std::to_string(captures1 - captures0) +
                        " serving plans; it would time plan capture");
  }

  // Phase 2: closed loop. The traced run alternates untraced and traced
  // segments to measure the tracing overhead.
  const double phase2_s = std::max(1.0, args.seconds - phase1_s);
  const std::vector<int64_t> closed_users =
      ZipfUsers(args.seed ^ 0xc105edULL, ds.num_users, kZipfS, 1 << 16,
                kHotWindow);
  std::atomic<size_t> next{0};
  // Completed requests and time of the untraced and the traced segments.
  int64_t closed_ok[2] = {0, 0};
  double closed_ns[2] = {0, 0};
  const int segments = args.trace ? 4 : 1;
  SpanRecorder no_spans(false);
  for (int seg = 0; seg < segments; ++seg) {
    const bool traced = args.trace && seg % 2 == 1;
    const int64_t start = NowNs();
    const int64_t stop =
        start + static_cast<int64_t>(phase2_s / segments * 1e9);
    std::vector<Reply> part =
        RunClosedLoop(s.router.get(), clients, closed_users, &next, stop,
                      traced ? &spans : &no_spans);
    int64_t last_done = start;
    for (Reply& r : part) {
      report->Attempt("closed_loop");
      if (!r.ok) {
        report->Fail("closed_loop", r.error);
        continue;
      }
      const std::string why =
          CheckList(r.list, s.recalled[static_cast<size_t>(r.user)]);
      if (!why.empty()) {
        report->Fail("closed_loop", why);
        report->CheckFailed("closed loop: " + why);
        continue;
      }
      ++closed_ok[traced];
      last_done = std::max(last_done, r.done_ns);
    }
    closed_ns[traced] += static_cast<double>(last_done - start);
  }
  const double closed_rate =
      static_cast<double>(closed_ok[0]) / (closed_ns[0] / 1e9);
  if (PlanCaptures(*s.rec->model()) != captures1) {
    report->CheckFailed("closed loop captured serving plans");
  }
  Report::Info("closed_loop.requests",
               std::to_string(closed_ok[0] + closed_ok[1]));
  s.scorer->TakeCalls();

  // The tail percentiles are printed for context only: on a shared host
  // their run-to-run spread is too wide for a bound.
  Report::DetailPercentile("open_loop.latency_p90_ms", latency_ms, 90, "ms");
  Report::DetailPercentile("open_loop.latency_p99_ms", latency_ms, 99, "ms");
  if (!args.trace) {
    report->MetricMedian("setup_s", setup_s, "s");
    report->Metric("throughput_per_s", closed_rate, "1/s");
    report->Metric("latency_p50_ms", latency_ms.Median(), "ms");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("hr10",
                   served > 0 ? static_cast<double>(hits) / served : 0.0,
                   "ratio");
    report->Metric("train_loss", s.rec->train_stats().final_epoch_loss,
                   "nats");
    return;
  }

  // ---- Traced run: per-layer split of the open loop. ----
  // Match Score calls to the queued requests in FIFO order: a call holds
  // the rows of one or more consecutive requests (a request answered from
  // the scored-list cache completes inside SubmitTopK and has no call).
  Samples submit_us, queue_ms, post_us, score_ms;
  double score_ns_total = 0;
  double latency_ns_total = 0;
  int64_t requests_ok = 0;
  int64_t matched = 0;
  int64_t rows_total = 0;
  LaneAllocator lanes(kRequestLaneBase);
  size_t next_call = 0;
  int64_t call_rows_left = 0;
  bool mismatch = false;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    submit_us.Add(static_cast<double>(slot.submit_end_ns -
                                      slot.submit_start_ns) / 1e3);
    const int64_t req = static_cast<int64_t>(i);
    // A refused request completes inside SubmitTopK, before it returns.
    const int64_t end = std::max(slot.done_ns, slot.submit_end_ns);
    const int lane = lanes.Take(slot.due_ns, end);
    const int64_t span = spans.Add("request", slot.due_ns, end, -1, req, lane);
    spans.Add("router.submit", slot.submit_start_ns, slot.submit_end_ns, span,
              req, lane);
    if (!slot.ok) continue;
    latency_ns_total += static_cast<double>(slot.done_ns - slot.due_ns);
    ++requests_ok;
    if (slot.done_inline) continue;  // answered without a Score call
    const int64_t rows = static_cast<int64_t>(
        s.recalled[static_cast<size_t>(slot.user)].size());
    if (call_rows_left < rows) {
      if (next_call >= calls.size()) {
        mismatch = true;
        break;
      }
      const ScoreCall& call = calls[next_call++];
      if (call.first_user != slot.user) mismatch = true;
      call_rows_left = call.rows;
      rows_total += call.rows;
      score_ms.Add(static_cast<double>(call.end_ns - call.start_ns) / 1e6);
      score_ns_total += static_cast<double>(call.end_ns - call.start_ns);
      spans.Add("score", call.start_ns, call.end_ns, span, req, kWorkerLane);
    }
    call_rows_left -= rows;
    const ScoreCall& call = calls[next_call - 1];
    ++matched;
    queue_ms.Add(static_cast<double>(
                     std::max<int64_t>(0, call.start_ns - slot.submit_end_ns)) /
                 1e6);
    post_us.Add(static_cast<double>(slot.done_ns - call.end_ns) / 1e3);
    if (call.start_ns > slot.submit_end_ns) {
      spans.Add("router.queue", slot.submit_end_ns, call.start_ns, span, req,
                lane);
    }
    spans.Add("router.post", std::max(call.end_ns, slot.submit_end_ns),
              slot.done_ns, span, req, lane);
  }
  if (mismatch || next_call != calls.size()) {
    report->CheckFailed("open-loop Score calls do not match the requests");
  }
  const int64_t n_calls = static_cast<int64_t>(next_call);
  Report::Detail("router.submit_us_p50", submit_us.Median(), "us");
  Report::Detail("router.queue_wait_ms_p50", queue_ms.Median(), "ms");
  Report::DetailPercentile("router.queue_wait_ms_p99", queue_ms, 99, "ms");
  Report::Detail("router.post_us_p50", post_us.Median(), "us");
  Report::Detail("router.requests_per_batch",
                 static_cast<double>(matched) / std::max<int64_t>(1, n_calls),
                 "count");
  Report::Detail("score.ms_p50", score_ms.Median(), "ms");
  ReportForwardSplit(ForwardSplit{score_ns_total, rows_total, n_calls,
                                  latency_ns_total, requests_ok},
                     report);

  // Recall and top-k: the open loop's users and scored lists, replayed.
  Samples recall_us;
  Samples candidates;
  for (const Slot& slot : slots) {
    const int64_t t0 = NowNs();
    const std::vector<data::OdPair> c = s.service->RecallFor(slot.user);
    const int64_t t1 = NowNs();
    recall_us.Add(static_cast<double>(t1 - t0) / 1e3);
    candidates.Add(static_cast<double>(c.size()));
    spans.Add("probe.recall", t0, t1, -1, -1, 4);
  }
  Report::Detail("recall.us_p50", recall_us.Median(), "us");
  Report::Detail("recall.candidates_per_request", candidates.Mean(), "count");

  const std::vector<std::vector<data::Sample>> kept_rows = s.scorer->TakeRows();
  const std::vector<std::vector<baselines::OdScore>> kept_scores =
      s.scorer->TakeScores();
  Samples topk_us;
  double kept_score_ns = 0;
  for (size_t c = 0; c < kept_rows.size(); ++c) {
    std::vector<serving::RankedFlight> scored;
    for (size_t j = 0; j < kept_rows[c].size(); ++j) {
      scored.push_back(
          serving::RankedFlight{kept_rows[c][j].candidate,
                                s.scorer->CombinedScore(kept_scores[c][j])});
    }
    const int64_t t0 = NowNs();
    std::vector<serving::RankedFlight> top = serving::SelectTopK(scored, kTopK);
    const int64_t t1 = NowNs();
    topk_us.Add(static_cast<double>(t1 - t0) / 1e3);
    spans.Add("probe.topk", t0, t1, -1, -1, 4);
    if (top.size() != std::min<size_t>(kTopK, scored.size())) {
      report->CheckFailed("SelectTopK replay returned a short list");
    }
    kept_score_ns += static_cast<double>(calls[c].end_ns - calls[c].start_ns);
  }
  Report::Detail("topk.us_p50", topk_us.Median(), "us");
  Report::Detail("closed_loop.throughput_per_s", closed_rate, "1/s");

  ReportPlanCache(*s.rec->model(), report);

  LayerProbe probe(s.world, BenchConfig());
  ReportLayerTimes(probe.Replay(kept_rows, &spans), kept_score_ns, report);
  // Time per closed-loop request with spans recorded over without.
  report->Metric("trace.overhead_ratio",
                 closed_rate / (static_cast<double>(closed_ok[1]) /
                                (closed_ns[1] / 1e9)),
                 "ratio");
}

}  // namespace odbench
