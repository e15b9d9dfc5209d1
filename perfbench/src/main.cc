// fkd_perfbench: the repository's end-to-end benchmark.
//
//   fkd_perfbench --workload=serve_unique|serve_hot|train_paper --seed=N
//                 --seconds=S --trace=0|1 --work-dir=DIR
//
// Every workload builds the stack from the libraries' public constructors
// with their default options: GeneratePolitiFact -> FakeDetector::Train ->
// ExportSnapshot -> VersionedModelStore -> serve::Router -> net::Server,
// then drives FKDN/1 load over loopback sockets through net::NetClient.
// The last stdout line is one JSON object: the end-to-end metrics with
// --trace=0, the per-layer metrics of a traced run with --trace=1. The run
// exits non-zero when a correctness check fails. See perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "host.h"
#include "load.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "stats.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "text/features.h"

namespace {

namespace ag = fkd::autograd;
namespace core = fkd::core;
namespace data = fkd::data;
namespace net = fkd::net;
namespace serve = fkd::serve;
using perfbench::NowNs;
using perfbench::SpanRecorder;

// ---- fixed workload parameters (recorded in BENCHMARK.json) ---------------

constexpr double kLightQps = 500.0;          // well under one batch per linger
constexpr double kUniqueHeavyQps = 8000.0;   // ~half the unique saturation
constexpr double kHotHeavyQps = 40000.0;     // ~half the cache-hit saturation
constexpr size_t kOpenLoopClients = 2;       // + 2 generator threads = 4
constexpr size_t kClosedLoopClients = 4;     // 4 I/O threads, 4 connections
constexpr size_t kClosedLoopWindow = 16;
// The serving phases run in rounds (saturated, heavy, light); each metric
// is the median over rounds. --seconds sets the number of rounds. An open
// loop phase that is not valid (the generator fell behind its schedule or
// the backlog grew) is run again while the phases have used less than
// kRetryShare times their nominal time; medians use the valid phases when
// there are any, else all. Every phase is printed.
//
// The saturated phase opens each round with a long warm-up: on the VM this
// was built on, the host runs the four vCPUs on one core's worth of time
// until about a second of load on all of them, then on four. Heavy and
// light follow while that lasts; a short warm-up would measure the switch.
constexpr double kSatWarmupS = 1.5;
constexpr double kWarmupS = 0.2;
constexpr double kLightS = 2.1;  // 1050 samples: ten lie beyond the p99
constexpr double kHeavyS = 1.0;
constexpr double kSatS = 1.0;
constexpr double kMeasuredRoundS = kSatS + kHeavyS + kLightS;
constexpr double kRoundS = kMeasuredRoundS + kSatWarmupS + 2 * kWarmupS;
constexpr double kRetryShare = 1.5;
constexpr size_t kServeArticles = 2000;
constexpr size_t kServeEpochs = 3;
constexpr size_t kPaperEpochs = 3;
constexpr size_t kSetupRepeats = 3;
constexpr size_t kHotSetSize = 256;
// serve_hot swaps four times inside every saturated phase, evenly spaced
// over its warm-up and measured window (every 0.5 s), so swap_ms is a median
// over twelve swaps under load. None falls in an open-loop phase: there the
// refill misses (a quarter of a light phase, close to 1% of a heavy one)
// would flip the percentiles between the hit and the miss path, and the
// swap's burst of work would make the generator late.
constexpr size_t kSwapsPerSatPhase = 4;
constexpr size_t kIdleSwapsPerRound = 4;
constexpr size_t kSamplesPerPhase = 48;
constexpr size_t kDataFolds = 5;
// Each workload's corpus and training run are fixed, like the paper's one
// PolitiFact network; --seed drives the request streams. Training is then
// deterministic, so its held-out accuracy is a known constant per corpus.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kTrainSeed = 7;
// Held-out articles the two fixed training runs classify correctly
// (bi-class), recorded from the libraries at the commit that added this
// benchmark. A change that moves them changes results, not only speed.
constexpr size_t kServeTestCorrect = 234;   // of 400
constexpr size_t kPaperTestCorrect = 1639;  // of 2811
// The five model stages must account for Snapshot::Score within this share.
constexpr double kStageCoverageBound = 0.15;

enum class Workload { kServeUnique, kServeHot, kTrainPaper };

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x;
}

// ---- correctness checks -------------------------------------------------

class Checks {
 public:
  void Add(const std::string& name, bool ok, const std::string& detail) {
    std::printf("{\"type\":\"check\",\"name\":\"%s\",\"ok\":%s,"
                "\"detail\":\"%s\"}\n",
                name.c_str(), ok ? "true" : "false", detail.c_str());
    all_ok_ = all_ok_ && ok;
  }
  bool all_ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

// ---- corpus and training ------------------------------------------------

struct Corpus {
  data::Dataset dataset;
  std::unique_ptr<fkd::graph::HeterogeneousGraph> graph;
  data::TriSplit split;
  double generate_s = 0.0;
  double graph_s = 0.0;
};

std::unique_ptr<Corpus> MakeCorpus(const data::GeneratorOptions& options,
                                   uint64_t seed, SpanRecorder* spans,
                                   uint64_t parent) {
  auto corpus = std::make_unique<Corpus>();
  int64_t t0 = NowNs();
  auto dataset = data::GeneratePolitiFact(options);
  FKD_CHECK_OK(dataset.status());
  corpus->dataset = std::move(dataset).value();
  int64_t t1 = NowNs();
  spans->Record("data.generate", t0, t1, parent);
  auto graph = corpus->dataset.BuildGraph();
  FKD_CHECK_OK(graph.status());
  corpus->graph = std::make_unique<fkd::graph::HeterogeneousGraph>(
      std::move(graph).value());
  const int64_t t2 = NowNs();
  spans->Record("graph.build", t1, t2, parent);
  fkd::Rng rng(seed);
  auto splits = data::KFoldTriSplits(
      corpus->dataset.articles.size(), corpus->dataset.creators.size(),
      corpus->dataset.subjects.size(), kDataFolds, &rng);
  FKD_CHECK_OK(splits.status());
  corpus->split = splits.value()[0];
  corpus->generate_s = Seconds(t1 - t0);
  corpus->graph_s = Seconds(t2 - t1);
  return corpus;
}

/// Per-epoch wall time and work counts, from the public TrainObserver.
class EpochObserver : public fkd::obs::TrainObserver {
 public:
  EpochObserver(SpanRecorder* spans, uint64_t parent)
      : spans_(spans),
        parent_(parent),
        tasks_(fkd::obs::MetricsRegistry::Default().GetCounter(
            "fkd.compute.tasks")) {}

  void OnTrainBegin(const std::string&, size_t) override {
    begin_ns = NowNs();
    Mark();
  }
  void OnEpochEnd(const std::string&,
                  const fkd::obs::EpochStats& stats) override {
    const int64_t now = NowNs();
    epoch_s.push_back(stats.seconds);
    spans_->Record("train.epoch",
                   now - static_cast<int64_t>(stats.seconds * 1e9), now,
                   parent_);
    tasks_per_epoch.push_back(tasks_->Value() - last_tasks_);
    tape_per_epoch.push_back(
        static_cast<double>(ag::TapeNodesCreated() - last_tape_));
    Mark();
  }

  int64_t begin_ns = 0;
  std::vector<double> epoch_s;
  std::vector<double> tasks_per_epoch;
  std::vector<double> tape_per_epoch;

 private:
  void Mark() {
    last_tasks_ = tasks_->Value();
    last_tape_ = ag::TapeNodesCreated();
  }

  SpanRecorder* spans_;
  uint64_t parent_;
  fkd::obs::Counter* tasks_;
  double last_tasks_ = 0.0;
  uint64_t last_tape_ = 0;
};

struct Trained {
  std::unique_ptr<core::FakeDetector> detector;
  double train_s = 0.0;
  double prepare_s = 0.0;
  std::vector<double> epoch_s;
  std::vector<double> tasks_per_epoch;
  std::vector<double> tape_per_epoch;
  size_t test_correct = 0;
  size_t test_total = 0;

  double accuracy() const {
    return static_cast<double>(test_correct) /
           static_cast<double>(test_total);
  }
};

std::vector<int32_t> BiTargets(const data::Dataset& dataset) {
  std::vector<int32_t> out;
  for (const auto& a : dataset.articles) {
    out.push_back(fkd::eval::TargetOf(a.label,
                                      fkd::eval::LabelGranularity::kBinary));
  }
  return out;
}

Trained TrainDetector(const Corpus& corpus, size_t epochs, uint64_t seed,
                      SpanRecorder* spans, uint64_t parent) {
  Trained out;
  core::FakeDetectorConfig config;
  config.epochs = epochs;
  const uint64_t train_span = spans->enabled() ? spans->NewId() : 0;
  EpochObserver observer(spans, train_span);
  fkd::eval::TrainContext context;
  context.dataset = &corpus.dataset;
  context.graph = corpus.graph.get();
  context.train_articles = corpus.split.articles.train;
  context.train_creators = corpus.split.creators.train;
  context.train_subjects = corpus.split.subjects.train;
  context.granularity = fkd::eval::LabelGranularity::kBinary;
  context.seed = seed;
  context.observer = &observer;
  out.detector = std::make_unique<core::FakeDetector>(config);
  const int64_t t0 = NowNs();
  FKD_CHECK_OK(out.detector->Train(context));
  const int64_t t1 = NowNs();
  spans->Record("train", t0, t1, parent, 0, train_span);
  spans->Record("train.prepare", t0, observer.begin_ns, train_span);
  out.train_s = Seconds(t1 - t0);
  out.prepare_s = Seconds(observer.begin_ns - t0);
  out.epoch_s = observer.epoch_s;
  out.tasks_per_epoch = observer.tasks_per_epoch;
  out.tape_per_epoch = observer.tape_per_epoch;
  auto predictions = out.detector->Predict();
  FKD_CHECK_OK(predictions.status());
  const std::vector<int32_t> targets = BiTargets(corpus.dataset);
  for (int32_t id : corpus.split.articles.test) {
    out.test_correct += predictions.value().articles[id] == targets[id];
    ++out.test_total;
  }
  return out;
}

/// Steady epochs: all but the first, which also pays one-time costs.
std::vector<double> SteadyEpochs(const std::vector<double>& epoch_s) {
  if (epoch_s.size() < 2) return epoch_s;
  return std::vector<double>(epoch_s.begin() + 1, epoch_s.end());
}

void Append(std::vector<double>* to, const std::vector<double>& more) {
  to->insert(to->end(), more.begin(), more.end());
}

std::vector<int32_t> ArgmaxRows(const fkd::Tensor& t) {
  std::vector<int32_t> out(t.rows());
  for (size_t r = 0; r < t.rows(); ++r) {
    const float* row = t.Row(r);
    size_t best = 0;
    for (size_t c = 1; c < t.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<int32_t>(best);
  }
  return out;
}

core::DiffusionBatch BuildBatch(const core::DiffusionModel& model,
                                const Corpus& corpus) {
  const data::Dataset& ds = corpus.dataset;
  std::vector<std::string> articles, creators, subjects;
  for (const auto& a : ds.articles) articles.push_back(a.text);
  for (const auto& c : ds.creators) creators.push_back(c.profile);
  for (const auto& s : ds.subjects) subjects.push_back(s.description);
  core::DiffusionBatch batch;
  batch.article_input = model.article_hflu().PrepareBatch(
      fkd::text::TokenizeDocuments(articles));
  batch.creator_input = model.creator_hflu().PrepareBatch(
      fkd::text::TokenizeDocuments(creators));
  batch.subject_input = model.subject_hflu().PrepareBatch(
      fkd::text::TokenizeDocuments(subjects));
  using fkd::graph::EdgeType;
  auto assign = [](std::vector<int32_t>* out, std::span<const int32_t> ids) {
    out->assign(ids.begin(), ids.end());
  };
  batch.article_subject_groups.resize(ds.articles.size());
  batch.article_creator_groups.resize(ds.articles.size());
  for (const auto& a : ds.articles) {
    assign(&batch.article_subject_groups[a.id],
           corpus.graph->ArticleNeighbors(EdgeType::kSubjectIndication, a.id));
    assign(&batch.article_creator_groups[a.id],
           corpus.graph->ArticleNeighbors(EdgeType::kAuthorship, a.id));
  }
  batch.creator_article_groups.resize(ds.creators.size());
  for (const auto& c : ds.creators) {
    assign(&batch.creator_article_groups[c.id],
           corpus.graph->ReverseNeighbors(EdgeType::kAuthorship, c.id));
  }
  batch.subject_article_groups.resize(ds.subjects.size());
  for (const auto& s : ds.subjects) {
    assign(&batch.subject_article_groups[s.id],
           corpus.graph->ReverseNeighbors(EdgeType::kSubjectIndication, s.id));
  }
  return batch;
}

struct ForwardProbe {
  double forward_s = 0.0;
  double backward_s = 0.0;
  bool predictions_match = false;
};

/// One full-batch forward (and, traced, its backward) of the trained model
/// on a DiffusionBatch rebuilt from public functions. The clean forward
/// must reproduce the predictions Train() cached, class for class.
ForwardProbe ProbeForwardBackward(core::FakeDetector& detector,
                                  const Corpus& corpus, bool with_backward,
                                  SpanRecorder* spans) {
  ForwardProbe out;
  const core::DiffusionModel& model = *detector.model();
  const core::DiffusionBatch batch = BuildBatch(model, corpus);
  const int64_t t0 = NowNs();
  const core::DiffusionModel::Logits logits = model.Forward(batch);
  const int64_t t1 = NowNs();
  spans->Record("train.forward", t0, t1);
  out.forward_s = Seconds(t1 - t0);
  auto cached = detector.Predict();
  out.predictions_match =
      cached.ok() &&
      ArgmaxRows(logits.articles.value()) == cached.value().articles &&
      ArgmaxRows(logits.creators.value()) == cached.value().creators &&
      ArgmaxRows(logits.subjects.value()) == cached.value().subjects;
  if (!with_backward) return out;
  const std::vector<int32_t> targets = BiTargets(corpus.dataset);
  std::vector<int32_t> fit_targets;
  for (int32_t id : corpus.split.articles.train) {
    fit_targets.push_back(targets[id]);
  }
  const ag::Variable loss = ag::SoftmaxCrossEntropy(
      ag::GatherRows(logits.articles, corpus.split.articles.train),
      fit_targets);
  const int64_t t2 = NowNs();
  ag::Backward(loss);
  const int64_t t3 = NowNs();
  spans->Record("train.backward", t2, t3);
  out.backward_s = Seconds(t3 - t2);
  return out;
}

// ---- serving stack --------------------------------------------------------

struct Body {
  std::string text;
  int32_t creator = -1;
  std::vector<int32_t> subjects;
};

std::vector<Body> TestBodies(const Corpus& corpus) {
  std::vector<Body> out;
  for (int32_t id : corpus.split.articles.test) {
    const data::Article& a = corpus.dataset.articles[id];
    out.push_back({a.text, a.creator, a.subjects});
  }
  return out;
}

struct SwapLog {
  std::mutex mutex;
  std::vector<double> load_ms;
  std::vector<double> publish_ms;
  std::atomic<uint64_t> parent_span{0};
};

/// The serving stack under test, every component with default options.
class Stack {
 public:
  Stack(std::string snapshot_dir, SpanRecorder* spans, SwapLog* swaps)
      : snapshot_dir_(std::move(snapshot_dir)), spans_(spans), swaps_(swaps) {}

  ~Stack() {
    if (server_ != nullptr) server_->Shutdown();
    if (router_ != nullptr) router_->Stop();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  fkd::Status Start() {
    auto initial = store_.Load(snapshot_dir_);
    FKD_RETURN_NOT_OK(initial.status());
    FKD_RETURN_NOT_OK(store_.Publish(initial.value()->version));
    const serve::RouterOptions router_options;
    router_ = std::make_unique<serve::Router>(router_options);
    FKD_RETURN_NOT_OK(router_->Start(initial.value()));
    net::ServerOptions options;
    options.swap_handler = [this] { return Swap(); };
    server_ = std::make_unique<net::Server>(router_.get(), options);
    return server_->Start();
  }

  int port() const { return server_->bound_port(); }
  serve::Router& router() { return *router_; }
  net::Server& server() { return *server_; }

 private:
  /// kSwapRequest: the store reloads the snapshot, the router publishes it,
  /// the previous version is retired.
  fkd::Result<uint64_t> Swap() {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    const uint64_t parent = swaps_->parent_span.load();
    const int64_t t0 = NowNs();
    auto model = store_.Load(snapshot_dir_);
    const int64_t t1 = NowNs();
    FKD_RETURN_NOT_OK(model.status());
    FKD_RETURN_NOT_OK(router_->Publish(model.value()));
    const int64_t t2 = NowNs();
    spans_->Record("store.load", t0, t1, parent);
    spans_->Record("router.publish", t1, t2, parent);
    const auto previous = store_.Active();
    FKD_RETURN_NOT_OK(store_.Publish(model.value()->version));
    if (previous != nullptr) {
      FKD_RETURN_NOT_OK(store_.Retire(previous->version));
    }
    std::lock_guard<std::mutex> log_lock(swaps_->mutex);
    swaps_->load_ms.push_back(Millis(t1 - t0));
    swaps_->publish_ms.push_back(Millis(t2 - t1));
    return model.value()->version;
  }

  const std::string snapshot_dir_;
  SpanRecorder* spans_;
  SwapLog* swaps_;
  std::mutex swap_mutex_;
  serve::VersionedModelStore store_;
  std::unique_ptr<serve::Router> router_;
  std::unique_ptr<net::Server> server_;
};

struct SwapRecord {
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  uint64_t version = 0;
  bool ok = false;
};

SwapRecord DoSwap(int port, SwapLog* log, SpanRecorder* spans) {
  SwapRecord out;
  const uint64_t span = spans->enabled() ? spans->NewId() : 0;
  log->parent_span.store(span);
  out.start_ns = NowNs();
  auto version = net::RequestSwap("127.0.0.1", port);
  out.done_ns = NowNs();
  spans->Record("swap", out.start_ns, out.done_ns, 0, 0, span);
  out.ok = version.ok();
  if (out.ok) out.version = version.value();
  return out;
}

// ---- model stages -------------------------------------------------------

struct StageTimes {
  // Per-article µs: prepare (tokenise + PrepareBatch), hflu, aggregate,
  // gdu, head; and the whole Snapshot::Score.
  double stage[5] = {0, 0, 0, 0, 0};
  double score = 0.0;
  bool bitwise = true;
};

bool SameBits(const fkd::Tensor& a, const fkd::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r), b.Row(r), a.cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Calls each model stage's public function in the order ScoreArticles
/// does, timing each; returns the logits.
fkd::Tensor RunStages(const serve::Snapshot& snap,
                      const std::vector<std::string>& texts,
                      const std::vector<int32_t>& creators,
                      const std::vector<std::vector<int32_t>>& subjects,
                      int64_t marks[6]) {
  const core::DiffusionModel& model = *snap.model;
  marks[0] = NowNs();
  const core::HfluInput input =
      model.article_hflu().PrepareBatch(fkd::text::TokenizeDocuments(texts));
  marks[1] = NowNs();
  ag::InferenceModeGuard no_grad;
  const ag::Variable xa = model.article_hflu().Forward(input);
  marks[2] = NowNs();
  std::vector<std::vector<int32_t>> creator_groups(creators.size());
  for (size_t i = 0; i < creators.size(); ++i) {
    if (creators[i] >= 0) creator_groups[i] = {creators[i]};
  }
  const ag::Variable hu(snap.creator_states, false, "frozen_hu");
  const ag::Variable hs(snap.subject_states, false, "frozen_hs");
  const ag::Variable za = ag::GroupMeanRows(hs, subjects);
  const ag::Variable ta = ag::GroupMeanRows(hu, creator_groups);
  marks[3] = NowNs();
  const ag::Variable ha(
      model.article_gdu().StepInference(xa.value(), za.value(), ta.value()),
      false, "ha");
  marks[4] = NowNs();
  fkd::Tensor logits = model.article_head().Forward(ha).value();
  marks[5] = NowNs();
  return logits;
}

StageTimes ProbeStages(const serve::Snapshot& snap,
                       const std::vector<Body>& bodies, size_t batch,
                       size_t reps, SpanRecorder* spans) {
  StageTimes out;
  std::vector<double> stage[5];
  std::vector<double> score;
  for (size_t rep = 0; rep < reps; ++rep) {
    std::vector<std::string> texts;
    std::vector<int32_t> creators;
    std::vector<std::vector<int32_t>> subjects;
    for (size_t i = 0; i < batch; ++i) {
      const Body& b = bodies[(rep * batch + i) % bodies.size()];
      texts.push_back(b.text);
      creators.push_back(b.creator);
      subjects.push_back(b.subjects);
    }
    int64_t marks[6];
    const uint64_t parent = spans->enabled() ? spans->NewId() : 0;
    const fkd::Tensor staged =
        RunStages(snap, texts, creators, subjects, marks);
    static const char* kNames[5] = {"model.prepare", "model.hflu",
                                    "model.aggregate", "model.gdu",
                                    "model.head"};
    for (int s = 0; s < 5; ++s) {
      stage[s].push_back(static_cast<double>(marks[s + 1] - marks[s]) *
                         1e-3 / static_cast<double>(batch));
      spans->Record(kNames[s], marks[s], marks[s + 1], parent);
    }
    spans->Record("model.stages", marks[0], marks[5], 0, 0, parent);
    const int64_t t0 = NowNs();
    const fkd::Tensor scored = snap.Score(texts, creators, subjects);
    const int64_t t1 = NowNs();
    spans->Record("model.score", t0, t1);
    score.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                    static_cast<double>(batch));
    out.bitwise = out.bitwise && SameBits(staged, scored);
  }
  for (int s = 0; s < 5; ++s) out.stage[s] = perfbench::Median(stage[s]);
  out.score = perfbench::Median(score);
  return out;
}

// ---- output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // A latency that is missing (failed requests) reads as a huge one.
    const double v = std::isfinite(m.value) ? m.value : 1e9;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// JSON number, or null when not finite (a missing latency).
std::string Num(double v, int digits) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void PrintPhase(const perfbench::PhaseResult& p) {
  const std::vector<double> lat = perfbench::MeasuredLatenciesMs(p.replies);
  const size_t n = lat.size();
  std::printf(
      "{\"type\":\"phase\",\"name\":\"%s\",\"loop\":\"%s\",\"target_qps\":%.0f,"
      "\"connections\":%zu,\"window\":%zu,\"measured_s\":%.3f,"
      "\"attempted\":%llu,\"ok\":%llu,\"shed\":%llu,\"deadline_exceeded\":%llu,"
      "\"transport_failed\":%llu,\"other_failed\":%llu,\"retries\":%llu,"
      "\"achieved_qps\":%.1f,\"lat_p50_ms\":%s,\"lat_p99_ms\":%s,"
      "\"samples\":%zu,\"beyond_p99\":%zu,\"highest_supported_permille\":%d,"
      "\"late_p50_us\":%.1f,\"late_p99_us\":%.1f,\"backlog_grows\":%s,"
      "\"valid\":%s}\n",
      p.name.c_str(), p.open_loop ? "open" : "closed", p.target_qps,
      p.connections, p.window, p.measured_s,
      static_cast<unsigned long long>(p.outcomes.attempted),
      static_cast<unsigned long long>(p.outcomes.ok),
      static_cast<unsigned long long>(p.outcomes.shed),
      static_cast<unsigned long long>(p.outcomes.deadline_exceeded),
      static_cast<unsigned long long>(p.outcomes.transport_failed),
      static_cast<unsigned long long>(p.outcomes.other_failed),
      static_cast<unsigned long long>(p.client_retries), p.achieved_qps,
      Num(perfbench::Percentile(lat, 500), 4).c_str(),
      Num(perfbench::Percentile(lat, 990), 4).c_str(), n,
      perfbench::SamplesBeyond(n, 990),
      perfbench::HighestSupportedPercentile(n),
      p.late_p50_us, p.late_p99_us, p.backlog_grows ? "true" : "false",
      p.valid() ? "true" : "false");
}

// ---- the run ------------------------------------------------------------

struct Args {
  Workload workload = Workload::kServeUnique;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

class Run {
 public:
  explicit Run(const Args& args)
      : args_(args),
        spans_(args.trace),
        rounds_(std::max<size_t>(
            1, static_cast<size_t>(
                   std::lround(args.seconds / kMeasuredRoundS)))),
        snapshot_dir_(args.work_dir + "/snapshot") {}

  int Main();

 private:
  void SetupServing();
  void SetupPaper();
  void ServePhases();
  void CheckServing();
  void Report();

  bool hot() const { return args_.workload == Workload::kServeHot; }

  perfbench::RequestFactory Maker(uint64_t phase_tag) const;
  perfbench::SamplePredicate Sampler(uint64_t phase_tag,
                                     double expected) const;
  enum class Kind { kLight, kHeavy, kSat };
  /// Runs one phase (with serve_hot's live swaps). `untraced` runs it on the
  /// driver whose spans are off, as the tracing-overhead baseline.
  perfbench::PhaseResult RunPhase(Kind kind, size_t round,
                                  bool untraced = false);
  /// Median of `value` over the valid phases of `kind` (over all of them
  /// when none is valid).
  double MedianOverRounds(
      const std::string& kind,
      const std::function<double(const perfbench::PhaseResult&)>& value) const;

  const Args args_;
  SpanRecorder spans_;
  const size_t rounds_;
  const std::string snapshot_dir_;
  Checks checks_;

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<Trained> trained_;
  std::vector<double> setup_s_, generate_s_, graph_s_;
  std::vector<double> epoch_s_, train_s_, prepare_s_;
  std::vector<double> tasks_per_epoch_, tape_per_epoch_;
  std::vector<double> accuracies_;
  ForwardProbe forward_;

  SwapLog swap_log_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<perfbench::LoadDriver> open_driver_;
  std::unique_ptr<perfbench::LoadDriver> closed_driver_;
  SpanRecorder no_spans_{false};
  std::unique_ptr<perfbench::LoadDriver> untraced_driver_;  // traced run only
  std::vector<Body> bodies_;
  std::vector<Body> hot_;
  std::vector<SwapRecord> swaps_;
  std::vector<perfbench::PhaseResult> phases_;
  std::vector<perfbench::SampledReply> samples_;
  // Distinct per request stream, so no two phases send the same unique text.
  uint64_t stream_tags_ = 0;

  // Traced-run extras.
  std::vector<double> overhead_pct_;  // per round
  std::vector<double> submit_us_;
  std::vector<double> ping_us_;
  StageTimes stages_b1_, stages_b16_;
  double tasks_per_batch_ = 0.0;
  double cache_hit_ratio_ = 0.0;
  double cache_hit_ratio_steady_ = 0.0;
  fkd::net::ServerStats server_before_, server_after_;
  double engine_retries_ = 0.0, engine_deadline_ = 0.0;
};

perfbench::RequestFactory Run::Maker(uint64_t phase_tag) const {
  if (hot()) {
    const std::vector<Body>* hot = &hot_;
    const uint64_t seed = args_.seed;
    return [hot, seed, phase_tag](uint64_t i) {
      const Body& b = (*hot)[Mix(seed ^ phase_tag, i) % hot->size()];
      net::ClassifyRequestMsg msg;
      msg.text = b.text;
      msg.creator_id = b.creator;
      msg.subject_ids = b.subjects;
      return msg;
    };
  }
  // Unique content: a per-request suffix defeats the score cache.
  const std::vector<Body>* bodies = &bodies_;
  const uint64_t seed = args_.seed;
  return [bodies, seed, phase_tag](uint64_t i) {
    const Body& b = (*bodies)[Mix(seed ^ phase_tag, i) % bodies->size()];
    net::ClassifyRequestMsg msg;
    msg.text = b.text + " q" + std::to_string(phase_tag) + "x" +
               std::to_string(i);
    msg.creator_id = b.creator;
    msg.subject_ids = b.subjects;
    return msg;
  };
}

perfbench::SamplePredicate Run::Sampler(uint64_t phase_tag,
                                        double expected) const {
  const uint64_t every = std::max<uint64_t>(
      1, static_cast<uint64_t>(expected / kSamplesPerPhase));
  const uint64_t seed = args_.seed;
  return [seed, phase_tag, every](uint64_t i) {
    return Mix(seed * 31 + phase_tag, i) % every == 0;
  };
}

perfbench::PhaseResult Run::RunPhase(Kind kind, size_t round,
                                     bool untraced) {
  static const char* kNames[3] = {"light", "heavy", "sat"};
  const std::string name = std::string(kNames[static_cast<int>(kind)]) +
                           (untraced ? "_untraced." : ".") +
                           std::to_string(round);
  const uint64_t tag = ++stream_tags_;
  const double measure_s = kind == Kind::kLight   ? kLightS
                           : kind == Kind::kHeavy ? kHeavyS
                                                  : kSatS;
  const double warmup_s = kind == Kind::kSat ? kSatWarmupS : kWarmupS;
  std::thread swapper;
  if (hot() && kind == Kind::kSat) {
    const int64_t start = NowNs();
    swapper = std::thread([this, start, warmup_s, measure_s] {
      for (size_t k = 1; k <= kSwapsPerSatPhase; ++k) {
        const int64_t at =
            start + static_cast<int64_t>((warmup_s + measure_s) *
                                         static_cast<double>(k) /
                                         (kSwapsPerSatPhase + 1) * 1e9);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::max<int64_t>(0, at - NowNs())));
        swaps_.push_back(DoSwap(stack_->port(), &swap_log_, &spans_));
      }
    });
  }
  perfbench::PhaseResult result;
  if (kind == Kind::kSat) {
    perfbench::LoadDriver* driver =
        untraced ? untraced_driver_.get() : closed_driver_.get();
    result = driver->ClosedLoop(name, kClosedLoopWindow, warmup_s, measure_s,
                                Maker(tag), Sampler(tag, 20000.0 * measure_s));
  } else {
    const double qps = kind == Kind::kLight ? kLightQps
                       : hot()              ? kHotHeavyQps
                                            : kUniqueHeavyQps;
    result = open_driver_->OpenLoop(name, qps, warmup_s, measure_s,
                                    Maker(tag),
                                    Sampler(tag, qps * (measure_s + warmup_s)));
  }
  if (swapper.joinable()) swapper.join();
  return result;
}

double Run::MedianOverRounds(
    const std::string& kind,
    const std::function<double(const perfbench::PhaseResult&)>& value) const {
  std::vector<double> all, valid;
  for (const auto& p : phases_) {
    if (p.name.rfind(kind + ".", 0) != 0) continue;
    all.push_back(value(p));
    if (p.valid()) valid.push_back(value(p));
  }
  return perfbench::Median(valid.empty() ? all : valid);
}

void Run::SetupServing() {
  // Set-up runs kSetupRepeats times from nothing; the last stack serves.
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    stack_.reset();
    corpus_.reset();
    trained_.reset();
    const int64_t t0 = NowNs();
    const uint64_t setup_span = spans_.enabled() ? spans_.NewId() : 0;
    corpus_ = MakeCorpus(
        data::GeneratorOptions::Scaled(kServeArticles, kCorpusSeed),
        kCorpusSeed, &spans_, setup_span);
    trained_ = std::make_unique<Trained>(TrainDetector(
        *corpus_, kServeEpochs, kTrainSeed, &spans_, setup_span));
    const int64_t t1 = NowNs();
    std::filesystem::remove_all(snapshot_dir_);
    FKD_CHECK_OK(serve::ExportSnapshot(*trained_->detector, snapshot_dir_));
    const int64_t t2 = NowNs();
    spans_.Record("snapshot.export", t1, t2, setup_span);
    stack_ = std::make_unique<Stack>(snapshot_dir_, &spans_, &swap_log_);
    FKD_CHECK_OK(stack_->Start());
    const int64_t t3 = NowNs();
    spans_.Record("stack.start", t2, t3, setup_span);
    spans_.Record("setup", t0, t3, 0, 0, setup_span);
    setup_s_.push_back(Seconds(t3 - t0));
    generate_s_.push_back(corpus_->generate_s);
    graph_s_.push_back(corpus_->graph_s);
    train_s_.push_back(trained_->train_s);
    prepare_s_.push_back(trained_->prepare_s);
    Append(&epoch_s_, SteadyEpochs(trained_->epoch_s));
    Append(&tasks_per_epoch_, SteadyEpochs(trained_->tasks_per_epoch));
    Append(&tape_per_epoch_, SteadyEpochs(trained_->tape_per_epoch));
    accuracies_.push_back(trained_->accuracy());
  }
  forward_ = ProbeForwardBackward(*trained_->detector, *corpus_, args_.trace,
                                  &spans_);
}

void Run::SetupPaper() {
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    corpus_.reset();
    const int64_t t0 = NowNs();
    const uint64_t setup_span = spans_.enabled() ? spans_.NewId() : 0;
    data::GeneratorOptions options = data::GeneratorOptions::PaperScale();
    options.seed = kCorpusSeed;
    corpus_ = MakeCorpus(options, kCorpusSeed, &spans_, setup_span);
    const int64_t t1 = NowNs();
    spans_.Record("setup", t0, t1, 0, 0, setup_span);
    setup_s_.push_back(Seconds(t1 - t0));
    generate_s_.push_back(corpus_->generate_s);
    graph_s_.push_back(corpus_->graph_s);
  }
  trained_ = std::make_unique<Trained>(
      TrainDetector(*corpus_, kPaperEpochs, kTrainSeed, &spans_, 0));
  train_s_.push_back(trained_->train_s);
  prepare_s_.push_back(trained_->prepare_s);
  epoch_s_ = SteadyEpochs(trained_->epoch_s);
  tasks_per_epoch_ = SteadyEpochs(trained_->tasks_per_epoch);
  tape_per_epoch_ = SteadyEpochs(trained_->tape_per_epoch);
  accuracies_.push_back(trained_->accuracy());
  forward_ = ProbeForwardBackward(*trained_->detector, *corpus_, args_.trace,
                                  &spans_);
  // The trained paper-scale model is then served like serve_unique.
  const int64_t t0 = NowNs();
  std::filesystem::remove_all(snapshot_dir_);
  FKD_CHECK_OK(serve::ExportSnapshot(*trained_->detector, snapshot_dir_));
  stack_ = std::make_unique<Stack>(snapshot_dir_, &spans_, &swap_log_);
  FKD_CHECK_OK(stack_->Start());
  std::printf("{\"type\":\"serve_setup\",\"seconds\":%.4f}\n",
              Seconds(NowNs() - t0));
}

void Run::ServePhases() {
  bodies_ = TestBodies(*corpus_);
  for (size_t i = 0; i < kHotSetSize; ++i) {
    Body b = bodies_[i % bodies_.size()];
    if (i >= bodies_.size()) b.text += " h" + std::to_string(i);
    hot_.push_back(std::move(b));
  }
  open_driver_ = std::make_unique<perfbench::LoadDriver>(
      stack_->port(), kOpenLoopClients, &spans_);
  closed_driver_ = std::make_unique<perfbench::LoadDriver>(
      stack_->port(), kClosedLoopClients, &spans_);
  FKD_CHECK_OK(open_driver_->Start());
  FKD_CHECK_OK(closed_driver_->Start());
  if (args_.trace) {
    untraced_driver_ = std::make_unique<perfbench::LoadDriver>(
        stack_->port(), kClosedLoopClients, &no_spans_);
    FKD_CHECK_OK(untraced_driver_->Start());
  }
  if (hot()) {
    // Fill the score cache with the hot set before anything is measured.
    net::NetClientOptions options;
    options.port = stack_->port();
    net::NetClient warm(options);
    FKD_CHECK_OK(warm.Start());
    for (const Body& b : hot_) {
      net::ClassifyRequestMsg msg;
      msg.text = b.text;
      msg.creator_id = b.creator;
      msg.subject_ids = b.subjects;
      FKD_CHECK_OK(warm.Classify(msg).status());
    }
    warm.Stop();
  }
  fkd::obs::MetricsRegistry& registry = fkd::obs::MetricsRegistry::Default();
  fkd::obs::Counter* retries = registry.GetCounter("fkd.serve.retries");
  fkd::obs::Counter* deadline =
      registry.GetCounter("fkd.serve.deadline_exceeded");
  fkd::obs::Counter* tasks = registry.GetCounter("fkd.compute.tasks");
  fkd::obs::Histogram* batches = registry.GetHistogram("fkd.serve.batch_size");
  const double retries0 = retries->Value();
  const double deadline0 = deadline->Value();
  server_before_ = stack_->server().Stats();
  const serve::RouterStats router0 = stack_->router().Stats();

  const double tasks0 = tasks->Value();
  const uint64_t batches0 = batches->Count();
  size_t valid[3] = {0, 0, 0};
  const int64_t retry_until =
      NowNs() + static_cast<int64_t>(kRetryShare *
                                     static_cast<double>(rounds_) * kRoundS *
                                     1e9);
  for (size_t round = 1;; ++round) {
    bool ran = false;
    for (Kind kind : {Kind::kSat, Kind::kHeavy, Kind::kLight}) {
      const int k = static_cast<int>(kind);
      if (valid[k] >= rounds_ || (round > rounds_ && NowNs() > retry_until)) {
        continue;
      }
      ran = true;
      double untraced_qps = 0.0;
      if (args_.trace && kind == Kind::kSat) {
        // The same closed loop with span recording off, right before the
        // traced one: the difference is the tracing overhead.
        const perfbench::PhaseResult untraced =
            RunPhase(kind, round, /*untraced=*/true);
        PrintPhase(untraced);
        untraced_qps = untraced.achieved_qps;
      }
      perfbench::PhaseResult result = RunPhase(kind, round);
      valid[k] += result.valid();
      if (untraced_qps > 0.0) {
        overhead_pct_.push_back(100.0 * (untraced_qps - result.achieved_qps) /
                                untraced_qps);
      }
      PrintPhase(result);
      phases_.push_back(std::move(result));
    }
    if (!ran) break;
  }
  for (int k = 0; k < 3; ++k) {
    if (valid[k] < rounds_) {
      std::printf("{\"type\":\"warning\",\"detail\":\"only %zu of %zu %s "
                  "phases were valid\"}\n",
                  valid[k], rounds_,
                  k == 0 ? "light" : k == 1 ? "heavy" : "sat");
    }
  }
  const uint64_t batch_delta = batches->Count() - batches0;
  tasks_per_batch_ = batch_delta == 0
                         ? 0.0
                         : (tasks->Value() - tasks0) /
                               static_cast<double>(batch_delta);
  const serve::RouterStats router1 = stack_->router().Stats();
  const uint64_t submitted = router1.submitted - router0.submitted;
  cache_hit_ratio_ =
      submitted == 0 ? 0.0
                     : static_cast<double>(router1.cache_hits -
                                           router0.cache_hits) /
                           static_cast<double>(submitted);
  if (!hot()) {
    for (size_t k = 0; k < kIdleSwapsPerRound * rounds_; ++k) {
      swaps_.push_back(DoSwap(stack_->port(), &swap_log_, &spans_));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (args_.trace) {
    // Timed Router::Submit calls, straight into the router.
    const auto make = Maker(++stream_tags_);
    std::vector<serve::ClassificationFuture> window;
    for (uint64_t i = 0; i < 4000; ++i) {
      const net::ClassifyRequestMsg msg = make(i);
      serve::ArticleRequest request;
      request.text = msg.text;
      request.creator_id = msg.creator_id;
      request.subject_ids = msg.subject_ids;
      const int64_t t0 = NowNs();
      auto future = stack_->router().Submit(std::move(request));
      const int64_t t1 = NowNs();
      spans_.Record("router.submit", t0, t1, 0, i + 1);
      submit_us_.push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (future.ok()) window.push_back(std::move(future).value());
      if (window.size() >= 32) {
        for (auto& f : window) f.wait();
        window.clear();
      }
    }
    for (auto& f : window) f.wait();
    for (int i = 0; i < 200; ++i) {
      const int64_t t0 = NowNs();
      auto rtt = net::Ping("127.0.0.1", stack_->port());
      spans_.Record("net.ping", t0, NowNs());
      if (rtt.ok()) ping_us_.push_back(static_cast<double>(rtt.value()));
    }
  }
  engine_retries_ = retries->Value() - retries0;
  engine_deadline_ = deadline->Value() - deadline0;
  server_after_ = stack_->server().Stats();
  samples_ = open_driver_->TakeSamples();
  for (auto& s : closed_driver_->TakeSamples()) {
    samples_.push_back(std::move(s));
  }

  // Cache hits outside swap windows (a window runs from the swap request to
  // 250 ms after the new version went live).
  uint64_t steady = 0, steady_hits = 0;
  for (const auto& phase : phases_) {
    for (const perfbench::Reply& r : phase.replies) {
      if (!r.measured || !r.timing.ok) continue;
      bool in_window = false;
      for (const SwapRecord& s : swaps_) {
        in_window = in_window || (r.timing.sent_ns >= s.start_ns &&
                                  r.timing.sent_ns < s.done_ns + 250'000'000);
      }
      if (in_window) continue;
      ++steady;
      steady_hits += r.from_cache;
    }
  }
  cache_hit_ratio_steady_ =
      steady == 0 ? 0.0
                  : static_cast<double>(steady_hits) /
                        static_cast<double>(steady);
}

void Run::CheckServing() {
  // 1. Sampled responses equal a direct Snapshot::Score, bit for bit.
  auto reference = serve::LoadSnapshot(snapshot_dir_);
  FKD_CHECK_OK(reference.status());
  size_t mismatches = 0;
  for (const perfbench::SampledReply& s : samples_) {
    const fkd::Tensor logits = reference.value().Score(
        {s.request.text}, {s.request.creator_id}, {s.request.subject_ids});
    const fkd::Tensor probs = fkd::SoftmaxRows(logits);
    int32_t best = 0;
    for (size_t c = 1; c < probs.cols(); ++c) {
      if (probs.At(0, c) > probs.At(0, best)) best = static_cast<int32_t>(c);
    }
    const bool same =
        best == s.class_id && s.probabilities.size() == probs.cols() &&
        std::memcmp(s.probabilities.data(), probs.Row(0),
                    probs.cols() * sizeof(float)) == 0;
    mismatches += !same;
  }
  checks_.Add("served_equals_direct_score",
              !samples_.empty() && mismatches == 0,
              std::to_string(samples_.size()) + " sampled responses, " +
                  std::to_string(mismatches) + " differ");

  // 2. The stage-by-stage calls reproduce ScoreArticles bitwise.
  const bool traced = args_.trace;
  stages_b1_ = ProbeStages(reference.value(), bodies_, 1, traced ? 200 : 2,
                           &spans_);
  stages_b16_ = ProbeStages(reference.value(), bodies_, 16, traced ? 60 : 2,
                            &spans_);
  checks_.Add("stages_reproduce_score_articles",
              stages_b1_.bitwise && stages_b16_.bitwise,
              "batch 1 and batch 16");

  // 3. Accounting identities of the router and the server.
  const serve::RouterStats rs = stack_->router().Stats();
  checks_.Add("router_accounting",
              rs.submitted ==
                  rs.cache_hits + rs.primary_requests + rs.canary_requests,
              "submitted=" + std::to_string(rs.submitted) +
                  " cache_hits=" + std::to_string(rs.cache_hits) +
                  " primary=" + std::to_string(rs.primary_requests) +
                  " canary=" + std::to_string(rs.canary_requests));
  const net::ServerStats ss = stack_->server().Stats();
  checks_.Add("server_accounting",
              ss.classify_frames ==
                  ss.responses_ok + ss.responses_error + ss.responses_dropped,
              "classify_frames=" + std::to_string(ss.classify_frames) +
                  " ok=" + std::to_string(ss.responses_ok) +
                  " error=" + std::to_string(ss.responses_error) +
                  " dropped=" + std::to_string(ss.responses_dropped));

  // 4. A request sent after a swap went live is never answered by an older
  //    version (a later swap may overtake it while it is in flight).
  size_t stale = 0, after = 0;
  bool swaps_ok = !swaps_.empty();
  for (const SwapRecord& s : swaps_) swaps_ok = swaps_ok && s.ok;
  for (const auto& phase : phases_) {
    for (const perfbench::Reply& r : phase.replies) {
      if (!r.timing.ok) continue;
      const SwapRecord* last = nullptr;
      for (const SwapRecord& s : swaps_) {
        if (s.ok && s.done_ns < r.timing.sent_ns &&
            (last == nullptr || s.done_ns > last->done_ns)) {
          last = &s;
        }
      }
      if (last == nullptr) continue;
      ++after;
      stale += r.model_version < last->version;
    }
  }
  checks_.Add("post_swap_version", swaps_ok && stale == 0,
              std::to_string(swaps_.size()) + " swaps, " +
                  std::to_string(after) + " responses after a swap, " +
                  std::to_string(stale) + " stale");

  // 5. Training reproduces the recorded accuracy, every set-up repeat
  //    agrees, and a forward pass rebuilt from public functions reproduces
  //    the predictions Train() cached.
  const size_t expected = args_.workload == Workload::kTrainPaper
                              ? kPaperTestCorrect
                              : kServeTestCorrect;
  bool same_acc = true;
  for (double a : accuracies_) same_acc = same_acc && a == accuracies_[0];
  checks_.Add("article_acc_deterministic",
              same_acc && forward_.predictions_match &&
                  trained_->test_correct == expected,
              std::to_string(trained_->test_correct) + "/" +
                  std::to_string(trained_->test_total) + " correct (expected " +
                  std::to_string(expected) + "), " +
                  std::to_string(accuracies_.size()) +
                  " trainings agree: " + (same_acc ? "yes" : "no") +
                  ", public-function forward matches: " +
                  (forward_.predictions_match ? "yes" : "no"));
}

void Run::Report() {
  using perfbench::Median;
  using perfbench::Percentile;
  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  for (const auto& p : phases_) {
    attempted += p.outcomes.attempted;
    failed += p.outcomes.failed();
  }
  for (const SwapRecord& s : swaps_) {
    ++attempted;
    failed += !s.ok;
  }
  auto latency = [](int permille) {
    return [permille](const perfbench::PhaseResult& p) {
      return Percentile(perfbench::MeasuredLatenciesMs(p.replies), permille);
    };
  };
  auto qps = [](const perfbench::PhaseResult& p) { return p.achieved_qps; };
  auto replies_of = [this](const std::string& kind) {
    std::vector<const perfbench::Reply*> out;
    for (const auto& p : phases_) {
      if (p.name.rfind(kind + ".", 0) != 0) continue;
      for (const auto& r : p.replies) out.push_back(&r);
    }
    return out;
  };
  // The p99s are printed but carry no bound: on a shared 4-vCPU VM their
  // run-to-run spread (vCPU wake-up delays, host stalls) exceeds any useful
  // bound. Every phase line also carries its own p50/p99.
  std::printf("{\"type\":\"unbounded\",\"lat_light_p99_ms\":%s,"
              "\"lat_heavy_p99_ms\":%s}\n",
              Num(MedianOverRounds("light", latency(990)), 4).c_str(),
              Num(MedianOverRounds("heavy", latency(990)), 4).c_str());
  if (!args_.trace) {
    std::vector<double> swap_ms;
    for (const SwapRecord& s : swaps_) {
      swap_ms.push_back(Millis(s.done_ns - s.start_ns));
    }
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"peak_rss_mb", perfbench::PeakRssMb(), "MB"},
        {"lat_light_p50_ms", MedianOverRounds("light", latency(500)), "ms"},
        {"lat_heavy_p50_ms", MedianOverRounds("heavy", latency(500)), "ms"},
        {"qps_sat", MedianOverRounds("sat", qps), "1/s"},
        {"swap_ms", Median(swap_ms), "ms"},
        {"epoch_s", Median(epoch_s_), "s"},
        {"train_s", Median(train_s_), "s"},
        {"article_acc", accuracies_.front(), "ratio"},
    };
  } else {
    // Engine stage times come from the Classification of engine-served
    // replies: queue wait at the light rate, batch/compute at saturation.
    std::vector<double> queue, batch_form, compute, batch_size;
    for (const perfbench::Reply* r : replies_of("light")) {
      if (r->measured && r->timing.ok && !r->from_cache) {
        queue.push_back(r->queue_us);
      }
    }
    if (queue.empty()) {
      // serve_hot's light phases never reach an engine; its queue wait is
      // that of the refills after swaps.
      for (const auto& p : phases_) {
        for (const auto& r : p.replies) {
          if (r.timing.ok && !r.from_cache) queue.push_back(r.queue_us);
        }
      }
    }
    for (const perfbench::Reply* r : replies_of("sat")) {
      if (!r->measured || !r->timing.ok || r->from_cache) continue;
      batch_form.push_back(r->batch_us);
      compute.push_back(r->compute_us);
      batch_size.push_back(r->batch_size);
    }
    const net::NetClientStats cs = [&] {
      net::NetClientStats a = open_driver_->ClientStats();
      const net::NetClientStats b = closed_driver_->ClientStats();
      a.retries += b.retries;
      a.timeouts += b.timeouts;
      return a;
    }();
    const double stage_sum_b16 = stages_b16_.stage[0] + stages_b16_.stage[1] +
                                 stages_b16_.stage[2] + stages_b16_.stage[3] +
                                 stages_b16_.stage[4];
    const double coverage = stage_sum_b16 / stages_b16_.score;
    std::printf("{\"type\":\"stage_coverage\",\"batch\":16,\"ratio\":%.4f,"
                "\"bound\":%.2f,\"within\":%s}\n",
                coverage, kStageCoverageBound,
                std::fabs(1.0 - coverage) <= kStageCoverageBound ? "true"
                                                                 : "false");
    auto delta = [](uint64_t after, uint64_t before) {
      return static_cast<double>(after - before);
    };
    const auto& s1 = stages_b1_;
    const auto& s16 = stages_b16_;
    metrics = {
        {"net.ping_rtt_us", Median(ping_us_), "us"},
        {"net.shed", delta(server_after_.shed, server_before_.shed), "count"},
        {"net.protocol_errors",
         delta(server_after_.protocol_errors, server_before_.protocol_errors),
         "count"},
        {"net.responses_dropped",
         delta(server_after_.responses_dropped,
               server_before_.responses_dropped),
         "count"},
        {"net.client_retries", static_cast<double>(cs.retries), "count"},
        {"net.client_timeouts", static_cast<double>(cs.timeouts), "count"},
        {"net.swap_self_ms", Median(spans_.SelfTimesMs("swap")), "ms"},
        {"loadgen.late_p99_us",
         MedianOverRounds("heavy",
                          [](const perfbench::PhaseResult& p) {
                            return p.late_p99_us;
                          }),
         "us"},
        {"router.submit_us_p50", Percentile(submit_us_, 500), "us"},
        {"router.submit_us_p99", Percentile(submit_us_, 990), "us"},
        {"router.cache_hit_ratio", cache_hit_ratio_, "ratio"},
        {"router.cache_hit_ratio_steady", cache_hit_ratio_steady_, "ratio"},
        {"router.publish_ms", Median(swap_log_.publish_ms), "ms"},
        {"store.load_ms", Median(swap_log_.load_ms), "ms"},
        {"engine.queue_us_p50", Percentile(queue, 500), "us"},
        {"engine.queue_us_p99", Percentile(queue, 990), "us"},
        {"engine.batch_us_p50", Percentile(batch_form, 500), "us"},
        {"engine.batch_us_p99", Percentile(batch_form, 990), "us"},
        {"engine.compute_us_p50", Percentile(compute, 500), "us"},
        {"engine.compute_us_p99", Percentile(compute, 990), "us"},
        {"engine.batch_size", perfbench::Mean(batch_size), "count"},
        {"engine.retries", engine_retries_, "count"},
        {"engine.deadline_exceeded", engine_deadline_, "count"},
        {"model.prepare_us_b1", s1.stage[0], "us"},
        {"model.hflu_us_b1", s1.stage[1], "us"},
        {"model.aggregate_us_b1", s1.stage[2], "us"},
        {"model.gdu_us_b1", s1.stage[3], "us"},
        {"model.head_us_b1", s1.stage[4], "us"},
        {"model.score_us_b1", s1.score, "us"},
        {"model.prepare_us_b16", s16.stage[0], "us"},
        {"model.hflu_us_b16", s16.stage[1], "us"},
        {"model.aggregate_us_b16", s16.stage[2], "us"},
        {"model.gdu_us_b16", s16.stage[3], "us"},
        {"model.head_us_b16", s16.stage[4], "us"},
        {"model.score_us_b16", s16.score, "us"},
        {"model.stage_coverage_b16", coverage, "ratio"},
        {"pool.tasks_per_batch", tasks_per_batch_, "count"},
        {"pool.tasks_per_epoch", Median(tasks_per_epoch_), "count"},
        {"train.epoch_s", Median(epoch_s_), "s"},
        {"train.prepare_s", Median(prepare_s_), "s"},
        {"train.forward_s", forward_.forward_s, "s"},
        {"train.backward_s", forward_.backward_s, "s"},
        {"train.tape_nodes_per_epoch", Median(tape_per_epoch_), "count"},
        {"data.generate_s", Median(generate_s_), "s"},
        {"graph.build_s", Median(graph_s_), "s"},
        {"trace.overhead_pct", Median(overhead_pct_), "%"},
    };
    const std::string trace_path = args_.work_dir + "/trace_" +
                                   args_.workload_name + "_seed" +
                                   std::to_string(args_.seed) + ".json";
    if (spans_.WriteChromeTrace(trace_path)) {
      std::printf("{\"type\":\"trace_file\",\"path\":\"%s\",\"spans\":%zu}\n",
                  trace_path.c_str(), spans_.Spans().size());
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              checks_.all_ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
}

int Run::Main() {
  const unsigned cpus = perfbench::AffinityCpuCount();
  const double scaling_before = perfbench::SpinScaling(cpus);
  if (args_.workload == Workload::kTrainPaper) {
    SetupPaper();
  } else {
    SetupServing();
  }
  ServePhases();
  CheckServing();
  const double scaling_after = perfbench::SpinScaling(cpus);
  const bool contended = perfbench::Contended(scaling_before, cpus) ||
                         perfbench::Contended(scaling_after, cpus);
  std::printf("{\"type\":\"host\",%s,\"spin_scaling_before\":%.3f,"
              "\"spin_scaling_after\":%.3f,\"contended\":%s}\n",
              perfbench::HostJsonFields().c_str(), scaling_before,
              scaling_after, contended ? "true" : "false");
  if (contended) {
    std::printf("{\"type\":\"warning\",\"detail\":\"host contended: spin "
                "probe below 3/4 of %u cores; timings are not clean\"}\n",
                cpus);
  }
  Report();
  std::fflush(stdout);
  // Clients first, so the server's drain does not make them reconnect.
  open_driver_.reset();
  closed_driver_.reset();
  untraced_driver_.reset();
  stack_.reset();
  return checks_.all_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fkd::FlagParser flags;
  flags.AddString("workload", "serve_unique",
                  "serve_unique | serve_hot | train_paper");
  flags.AddInt("seed", 1, "input generator seed");
  flags.AddInt("seconds", 10, "measured seconds of the serving phases");
  flags.AddInt("trace", 0, "1 = traced run reporting per-layer metrics");
  flags.AddString("work-dir", ".bench_build/work", "scratch directory");
  const fkd::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  Args args;
  args.workload_name = flags.GetString("workload");
  if (args.workload_name == "serve_unique") {
    args.workload = Workload::kServeUnique;
  } else if (args.workload_name == "serve_hot") {
    args.workload = Workload::kServeHot;
  } else if (args.workload_name == "train_paper") {
    args.workload = Workload::kTrainPaper;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload_name.c_str());
    return 2;
  }
  args.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  args.seconds = static_cast<double>(flags.GetInt("seconds"));
  args.trace = flags.GetInt("trace") != 0;
  args.work_dir = flags.GetString("work-dir");
  std::filesystem::create_directories(args.work_dir);
  Run run(args);
  return run.Main();
}
